//! A replicated Treiber stack (§8.3): the shared-memory algorithm ported
//! verbatim to the Kite API, driven by concurrent client threads on
//! different replicas.
//!
//! Each client performs push-then-pop pairs against a small set of shared
//! stacks and runs the paper's correctness checks: pops never observe an
//! empty stack and popped objects are never torn.
//!
//! Run: `cargo run --release --example lock_free_stack`

use std::sync::Arc;

use kite::ProtocolMode;
use kite_common::{ClusterConfig, NodeId, Val};
use kite_lockfree::driver::DsLayout;
use kite_lockfree::treiber::{TsPop, TsPush};
use kite_lockfree::{run_blocking, DsOutcome};
use kite_net::Cluster;

const CLIENTS: usize = 3;
const PAIRS: u64 = 30;
const FIELDS: usize = 4;

fn main() -> kite_common::Result<()> {
    let layout = DsLayout {
        structures: 4,
        fields: FIELDS,
        clients: CLIENTS,
        nodes_per_client: PAIRS + 4,
    };
    let cfg = ClusterConfig::small().keys(layout.keys_needed() + 64);
    let cluster = Arc::new(Cluster::launch(cfg, ProtocolMode::Kite)?);

    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || -> kite_common::Result<(u64, u64)> {
            let node = NodeId((client % 3) as u8);
            let mut sess = cluster.session(node, (client / 3) as u32)?;
            let mut arena = layout.arena(client);
            let mut rng = kite_common::rng::SplitMix64::new(client as u64 + 99);
            let mut retries = 0u64;
            for pair in 0..PAIRS {
                let stack = layout.stack(rng.next_below(4) as usize);
                // push: payload tagged (client, pair, field)
                let payload: Vec<Val> = (0..FIELDS)
                    .map(|f| {
                        Val::from_u64(
                            (client as u64) << 40 | pair << 8 | f as u64,
                        )
                    })
                    .collect();
                let node_ptr = arena.alloc();
                let mut push = TsPush::new(stack, node_ptr, payload);
                match run_blocking(&mut push, |op| sess.call(op).map(|c| c.output))? {
                    DsOutcome::Pushed { retries: r } => retries += r as u64,
                    other => panic!("unexpected outcome {other:?}"),
                }
                // pop: §8.3 checks
                let mut pop = TsPop::new(stack);
                match run_blocking(&mut pop, |op| sess.call(op).map(|c| c.output))? {
                    DsOutcome::Popped { fields, node, retries: r } => {
                        retries += r as u64;
                        let fields = fields.expect("pop after push must never find empty (§8.3)");
                        let tag0 = fields[0].as_u64() >> 8;
                        for (i, f) in fields.iter().enumerate() {
                            assert_eq!(
                                f.as_u64() >> 8,
                                tag0,
                                "torn object: field {i} from a different push"
                            );
                            assert_eq!(f.as_u64() & 0xFF, i as u64, "field order scrambled");
                        }
                        if arena.owns(node) {
                            arena.free(node);
                        }
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            Ok((PAIRS, retries))
        }));
    }

    let mut total_pairs = 0;
    let mut total_retries = 0;
    for h in handles {
        let (pairs, retries) = h.join().expect("client panicked")?;
        total_pairs += pairs;
        total_retries += retries;
    }
    println!(
        "{total_pairs} push/pop pairs across {CLIENTS} clients on 3 replicas; \
         {total_retries} CAS conflicts absorbed by weak CAS; no empty pops, no torn objects."
    );
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!("all clients joined"),
    }
    Ok(())
}
