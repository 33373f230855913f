//! Request-trace linkage: every span recorded for a traced request on a
//! pipelined wire-v2 run over a 2-shard × 2-replica backend must link
//! to exactly one root via parent ids — no orphans, no cycles — even
//! when the spans were emitted by shard-pool worker threads and an
//! injected crash forced a mid-run failover.
//!
//! Also the `explain analyze` acceptance path: over v2 the rendered
//! tree must contain wire, session, per-shard-worker, and storage spans
//! sharing one trace id, with predicted-vs-observed cost on the engine
//! span, and `db.trace(ID)` must return the same tree after the fact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;

use procdb::obs::TraceTree;
use procdb_core::StrategyKind;
use procdb_query::{FieldType, Organization, Schema, Value};
use procdb_server::{Server, ServerConfig, Session};
use procdb_wire::{Request, Response, WireClient};

const ROWS: i64 = 16;
const VIEWS: usize = 2;
/// A view across the split at key 8 (V0 and V1 each fit in one shard),
/// so its accesses scatter to both shards and run on pool workers. Its
/// start, rank 4, is outside the ±2-rank snapping band around 8.
const CROSSING: &str = "VX";
const PIPELINE_WINDOW: u32 = 8;

/// The span registry is process-global and its finished-trace ring is
/// bounded, so the tests in this binary must not interleave their
/// traced batches (an interleaved test could evict trees before they
/// are inspected).
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Distinct client-chosen trace-id blocks per traced batch.
static NEXT_ID_BLOCK: AtomicU64 = AtomicU64::new(1);

fn fresh_id_block() -> u64 {
    0x4000_0000_0000 + NEXT_ID_BLOCK.fetch_add(1, Ordering::Relaxed) * 0x1000
}

fn build_session(strategy: StrategyKind) -> Session {
    let mut s = Session::new();
    s.create_table(
        "EMP",
        Schema::new(vec![("eid", FieldType::Int), ("grp", FieldType::Int)]),
        Organization::BTree { key_field: 0 },
    )
    .unwrap();
    for i in 0..ROWS {
        s.insert("EMP", vec![Value::Int(i), Value::Int(i % 4)])
            .unwrap();
    }
    for v in 0..VIEWS {
        let lo = v as i64 * (ROWS / VIEWS as i64);
        let hi = lo + ROWS / VIEWS as i64 - 1;
        s.define_view(&format!(
            "define view V{v} (EMP.all) where EMP.eid >= {lo} and EMP.eid <= {hi}"
        ))
        .unwrap();
    }
    s.define_view(&format!(
        "define view {CROSSING} (EMP.all) where EMP.eid >= 4 and EMP.eid <= 11"
    ))
    .unwrap();
    s.set_shards(2).unwrap();
    s.set_replicas(2).unwrap();
    s.set_strategy(strategy).unwrap();
    s.prepare().unwrap();
    s
}

/// Walk one tree: exactly one root, every parent id resolves within
/// the tree, every span reaches the root without revisiting a span,
/// and every span carries the tree's trace id.
fn assert_linked(tree: &TraceTree, trace_id: u64) {
    assert_eq!(
        tree.dropped, 0,
        "trace {trace_id} dropped spans; linkage check needs the full tree"
    );
    assert_eq!(tree.trace_id, trace_id);
    let by_id: HashMap<u64, &procdb::obs::SpanEvent> =
        tree.spans.iter().map(|s| (s.span_id, s)).collect();
    assert_eq!(by_id.len(), tree.spans.len(), "duplicate span ids");
    let roots: Vec<_> = tree.spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(
        roots.len(),
        1,
        "trace {trace_id} must have exactly one root, got {}: {:?}",
        roots.len(),
        roots.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
    );
    let root_id = roots[0].span_id;
    for span in &tree.spans {
        assert_eq!(span.trace_id, trace_id, "span {} crossed traces", span.name);
        let mut cur = span.span_id;
        let mut seen = std::collections::HashSet::new();
        while cur != root_id {
            assert!(seen.insert(cur), "cycle through span id {cur}");
            let s = by_id
                .get(&cur)
                .unwrap_or_else(|| panic!("orphan: span id {cur} ({})", span.name));
            cur = s.parent_id;
            assert!(
                by_id.contains_key(&cur),
                "span {} has unresolvable parent {cur}",
                s.name
            );
        }
    }
}

proptest! {
    // Each case drives a fresh server; a handful of cases keeps the
    // suite's wall-clock in line with the other wire proptests.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pipelined traced commands (accesses and updates, interleaved
    /// with an injected crash/recover of shard 0) all yield fully
    /// linked single-root span trees under their client-chosen ids.
    #[test]
    fn traced_v2_runs_link_every_span_to_one_root(
        ops in proptest::collection::vec(0u8..8, 8..24),
        crash_at in 0usize..8,
    ) {
        let _guard = REGISTRY_LOCK.lock().unwrap();
        let server = Server::start(
            build_session(StrategyKind::CacheInvalidate),
            ServerConfig { port: 0, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = WireClient::connect(server.addr().to_string(), PIPELINE_WINDOW).unwrap();
        let base = fresh_id_block();

        let mut pending: HashMap<u64, u64> = HashMap::new(); // request id -> trace id
        // A re-key may legitimately fail (victim already moved); the
        // linkage property holds for errored requests too, so draining
        // only insists on a response per request.
        let drain = |client: &mut WireClient, pending: &mut HashMap<u64, u64>, floor: usize| {
            while pending.len() > floor {
                let (id, resp) = client.recv().unwrap();
                pending.remove(&id).unwrap();
                assert!(
                    matches!(resp, Response::OkText { .. } | Response::Error { .. }),
                    "unexpected response: {resp:?}"
                );
            }
        };
        let mut trace_ids = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if i == crash_at {
                // Untraced control-plane hiccup: crash shard 0's
                // primary (a follower is promoted on the next access),
                // then rejoin it. Traced requests keep flowing.
                let id = client.send(&Request::Command { line: "crash 0".into() }).unwrap();
                pending.insert(id, 0);
                let id = client.send(&Request::Command { line: "recover 0".into() }).unwrap();
                pending.insert(id, 0);
            }
            let line = match op {
                0..=1 => format!("access V{op}"),
                2..=4 => format!("access {CROSSING}"),
                _ => format!("update {} -> {}", *op as i64, *op as i64 + 100),
            };
            let tid = base + i as u64 + 1;
            trace_ids.push(tid);
            let id = client.send_traced(&Request::Command { line }, tid).unwrap();
            pending.insert(id, tid);
            if pending.len() >= PIPELINE_WINDOW as usize {
                drain(&mut client, &mut pending, PIPELINE_WINDOW as usize / 2);
            }
        }
        drain(&mut client, &mut pending, 0);
        client.close().unwrap();
        server.stop();

        let reg = procdb::obs::global();
        for tid in trace_ids {
            let tree = reg
                .find_trace(tid)
                .unwrap_or_else(|| panic!("trace {tid} was not retained"));
            assert_linked(&tree, tid);
            prop_assert!(
                tree.root().is_some_and(|r| r.name == "wire.request"),
                "root should be the wire span"
            );
        }
    }
}

#[test]
fn explain_analyze_over_v2_renders_a_multi_layer_tree() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let server = Server::start(
        build_session(StrategyKind::AlwaysRecompute),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr().to_string(), 4).unwrap();
    let id = client
        .send(&Request::Command {
            line: "explain analyze access V0".into(),
        })
        .unwrap();
    let (rid, resp) = client.recv().unwrap();
    assert_eq!(rid, id);
    let Response::OkText { text } = resp else {
        panic!("explain analyze failed: {resp:?}");
    };
    // One tree, all layers: wire root, session, shard workers (with
    // shard/role tags), storage leaves, and the engine span carrying
    // the cost model's prediction next to observed time. V0's window
    // ends below the split, so only shard 0 works on it.
    assert!(
        !text.contains("shard=1"),
        "V0 must not reach shard 1:\n{text}"
    );
    for needle in [
        "trace ",
        "wire.request",
        "session.access",
        "shard.worker",
        "shard=0",
        "role=",
        "pager.read",
        "access",
        "predicted_ms=",
        "observed_ms=",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The header names the trace id; db.trace(ID) must replay the same
    // tree after the fact.
    let header = text
        .lines()
        .find(|l| l.starts_with("trace "))
        .expect("tree header");
    let tid: u64 = header
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .expect("numeric trace id in header");
    client
        .send(&Request::Command {
            line: format!("call db.trace({tid})"),
        })
        .unwrap();
    let (_, resp) = client.recv().unwrap();
    let Response::OkText { text: replay } = resp else {
        panic!("db.trace failed: {resp:?}");
    };
    assert!(replay.contains(header), "db.trace lost the tree:\n{replay}");
    assert!(replay.contains("shard.worker"), "{replay}");

    // And the tree really is one linked family under one id.
    let tree = procdb::obs::global().find_trace(tid).unwrap();
    assert!(tree.spans.len() >= 4, "want a multi-layer tree: {tree:?}");
    let by_id: HashMap<u64, u64> = tree
        .spans
        .iter()
        .map(|s| (s.span_id, s.parent_id))
        .collect();
    assert_eq!(
        tree.spans.iter().filter(|s| s.parent_id == 0).count(),
        1,
        "one root"
    );
    for s in &tree.spans {
        assert_eq!(s.trace_id, tid);
        assert!(s.parent_id == 0 || by_id.contains_key(&s.parent_id));
    }

    // A window across the split asks both shards: each one's worker
    // span lands in the same tree.
    client
        .send(&Request::Command {
            line: format!("explain analyze access {CROSSING}"),
        })
        .unwrap();
    let (_, resp) = client.recv().unwrap();
    let Response::OkText { text } = resp else {
        panic!("explain analyze failed: {resp:?}");
    };
    for needle in ["shard.worker", "shard=0", "shard=1", "pager.read"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    client.close().unwrap();
    server.stop();
}
