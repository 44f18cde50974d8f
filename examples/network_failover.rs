//! Network-reliability scenario: a backbone link carries traffic along a
//! long primary route; parallel "protection" fiber runs beside it with
//! cross-connects every few points of presence. RPaths answers, for every
//! primary link, how expensive the reroute is if that link is cut — and
//! the per-link answers identify unprotected spans.
//!
//! The topology deliberately exercises the *long-detour* machinery: the
//! protection fiber is longer than the short-detour threshold ζ, so the
//! landmark pipeline of Section 5 does the work.
//!
//! The second half injects a scripted outage into a metro ring with a
//! seeded `FaultPlan` — a PoP crashes and restarts, a fiber span flaps
//! messages away, and one span is cut for good — and shows the control
//! plane detecting the damage distributedly, then re-solving in degraded
//! mode around the surviving topology.
//!
//! Run with: `cargo run --release -p rpaths --example network_failover`

use congest::bfs_tree::build_bfs_tree;
use congest::{FaultPlan, Network};
use graphkit::gen::{metro_ring, parallel_lane};
use graphkit::Dist;
use rpaths_core::resilient::{solve_with_recovery, Recovery};
use rpaths_core::{reachability, unweighted, Instance, Params};

fn main() {
    // 48 PoPs on the primary route; protection fiber with cross-connects
    // every 6 PoPs, running at 2x the hop cost (older, longer spans).
    let (g, s, t) = parallel_lane(48, 6, 2);
    let inst = Instance::from_endpoints(&g, s, t).expect("valid route");
    println!(
        "primary route: {} PoPs, {} links; network has {} nodes",
        inst.hops() + 1,
        inst.hops(),
        inst.n()
    );

    // ζ = n^{2/3}; here the protection detours have 2 + 6·2 = 14 hops,
    // longer than ζ = 27? n = 145 -> ζ = 28, so detours are "short".
    // Shrink ζ to put them firmly in the long-detour regime instead:
    let mut params = Params::with_zeta(inst.n(), 8);
    params.landmark_prob = 0.6;
    let out = unweighted::solve(&inst, &params).expect("backbone is connected");

    println!(
        "\nfailover cost per primary link (primary route costs {}):",
        inst.hops()
    );
    let mut worst = (0, Dist::ZERO);
    for (i, &len) in out.replacement.iter().enumerate() {
        if let Some(v) = len.finite() {
            if Dist::new(v) > worst.1 {
                worst = (i, Dist::new(v));
            }
        }
        let bar_len = len.finite().unwrap_or(0).min(70) as usize;
        println!(
            "  link {:>2}: {:>4}  {}",
            i,
            len,
            "#".repeat(bar_len.saturating_sub(40))
        );
    }
    println!(
        "\nworst-protected link: {} (reroute costs {}, +{} over primary)",
        worst.0,
        worst.1,
        worst.1.finite().unwrap_or(0) as i64 - inst.hops() as i64
    );
    println!(
        "computed distributedly in {} CONGEST rounds",
        out.metrics.rounds()
    );

    let oracle = graphkit::alg::replacement_lengths(&g, &inst.path);
    assert_eq!(out.replacement, oracle, "distributed ≠ centralized");
    println!("(verified against the centralized oracle)");

    // The same answers drive survivability reporting: which links have
    // *no* reroute at all?
    let reach = reachability::solve(&inst, &params).expect("backbone is connected");
    println!(
        "\nsurvivability: {} of {} links protected, SPOFs: {:?}",
        reach.survivable.iter().filter(|&&b| b).count(),
        reach.survivable.len(),
        reach.single_points_of_failure()
    );

    // ------------------------------------------------------------------
    // Scripted outage on a metro ring: PoP 6 crashes at round 2 and is
    // restarted at round 30; the span between PoPs 2 and 3 (span 2 =
    // links 4 and 5) is cut permanently; flaky hardware drops 2% of
    // messages. All deterministic from one seed.
    // ------------------------------------------------------------------
    println!("\n=== scripted outage: crash, restart, and a severed span ===");
    let pops = 24;
    let ring = metro_ring(pops);
    let plan = FaultPlan::new(0xc0ffee)
        .crash_node(6, 2, Some(30))
        .fail_link(4, 0, None)
        .fail_link(5, 0, None)
        .drop_messages(0.02);

    // Live detection: the control plane at PoP 0 floods a BFS tree under
    // the outage. While PoP 6 is dark the tree cannot span; each retry
    // re-anchors the plan to the rounds already burned, and the build
    // succeeds once the PoP restarts.
    let mut net = Network::new(&ring);
    net.set_fault_plan(Some(plan.clone()))
        .expect("the outage script targets ring links and PoPs");
    let mut probes = 0;
    loop {
        probes += 1;
        match build_bfs_tree(&mut net, 0) {
            Ok(_) => break,
            Err(e) => println!("  probe {probes}: {e}"),
        }
        assert!(probes < 16, "the outage script recovers by round 30");
        net.set_fault_plan(Some(plan.shifted(net.metrics().rounds())))
            .expect("a shifted plan keeps the original's targets");
    }
    let faults = net.metrics().faults;
    println!(
        "partition healed: probe {probes} spanned after {} rounds \
         ({} crash-dropped, {} link-dropped, {} randomly dropped messages)",
        net.metrics().rounds(),
        faults.dropped_node_down,
        faults.dropped_link_down,
        faults.dropped_random,
    );

    // Degraded solve: the crash recovered but the severed span did not.
    // The recovery wrapper re-poses the 0 -> 12 demand on the surviving
    // ring and answers along the long way round.
    let rec = solve_with_recovery(&ring, 0, pops / 2, &plan, &Params::for_n(pops))
        .expect("the ring survives a single severed span");
    match rec {
        Recovery::Full { .. } => unreachable!("span 2 is down for good"),
        Recovery::Degraded(d) => {
            let route = d.path.expect("ring minus one span stays connected");
            println!(
                "degraded solve: rerouted 0 -> {} over {} hops ({} unreachable PoPs)",
                pops / 2,
                route.len() - 1,
                d.unreachable.len(),
            );
            println!("  surviving route: {route:?}");
            let answers = d.answered.expect("demand survives the outage");
            let protected = answers.iter().filter(|a| a.is_finite()).count();
            println!(
                "  on the degraded ring, {protected} of {} route links still have a reroute",
                answers.len()
            );
        }
    }
    println!("(outage handled without aborting)");
}
