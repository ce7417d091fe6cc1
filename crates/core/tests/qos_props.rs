//! Property test for the QoS scheduler of [`MultiEngine`]: whatever mix
//! of bulk requests is queued ahead of it, an interactive request's batch
//! is never picked behind more than `max_ahead = queue_depth + threads`
//! lower-priority batches. A single worker makes the pick order directly
//! observable through a recording mapper, and a gate keeps the queue
//! stacked until the whole scenario is in place — no timing assumptions.

use segram_core::{EngineOptions, MapStats, Mapping, MultiEngine, Priority, ReadMapper};
use segram_graph::{DnaSeq, GenomeGraph};
use segram_sim::{DatasetConfig, Strand};
use segram_testkit::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Logs every read it maps (the pick order), and blocks inside the first
/// pick until the gate opens so tests can stack the queue deterministically.
struct RecordingMapper {
    graph: GenomeGraph,
    gate: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<DnaSeq>>>,
}

impl ReadMapper for RecordingMapper {
    fn graph(&self) -> &GenomeGraph {
        &self.graph
    }
    fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(read.clone());
        let start = Instant::now();
        while !self.gate.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
        (None, MapStats::default())
    }
    fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
        let (_, stats) = self.map_read(read);
        (None, stats)
    }
}

fn seq_of(read: &DnaSeq) -> &DnaSeq {
    read
}

proptest! {
    #[test]
    fn interactive_batches_are_never_starved_past_max_ahead(
        seed in 0u64..5_000,
        bulk_requests in 1usize..4,
        bulk_batches in 1usize..7,
        queue_depth in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let threads = 1usize;
        let max_ahead = queue_depth + threads;
        // Distinct reads mark which request a pick belonged to.
        let mut config = DatasetConfig::tiny(seed);
        config.read_count = bulk_requests + 2;
        let dataset = config.illumina(100);
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let filler_read = reads[0].clone();
        let fast_read = reads[1].clone();

        let gate = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let engine = MultiEngine::new(
            Arc::new(RecordingMapper {
                graph: dataset.graph().clone(),
                gate: Arc::clone(&gate),
                log: Arc::clone(&log),
            }),
            seq_of,
            EngineOptions::new().threads(threads).queue_depth(queue_depth),
        );

        // Park the lone worker inside a filler batch, then stack bulk
        // batches behind it, then enqueue the interactive batch last.
        let filler = engine.open().expect("admission");
        prop_assert!(filler.push(vec![filler_read.clone()]));
        let wait = Instant::now();
        while log.lock().unwrap_or_else(PoisonError::into_inner).is_empty()
            && wait.elapsed() < Duration::from_secs(10)
        {
            std::thread::yield_now();
        }
        let bulk: Vec<_> = (0..bulk_requests)
            .map(|i| {
                let request = engine
                    .open_with(Priority::Bulk, None)
                    .expect("admission");
                // Capped at the per-request queue depth so pushes cannot
                // block while the worker is parked.
                for _ in 0..bulk_batches.min(queue_depth) {
                    assert!(request.push(vec![reads[i + 2].clone()]));
                }
                request
            })
            .collect();
        let fast = engine
            .open_with(Priority::Interactive, None)
            .expect("admission");
        prop_assert!(fast.push(vec![fast_read.clone()]));
        gate.store(true, Ordering::SeqCst);

        filler.finish_input();
        fast.finish_input();
        for request in &bulk {
            request.finish_input();
        }
        while fast.next_output().is_some() {}
        while filler.next_output().is_some() {}
        for request in &bulk {
            while request.next_output().is_some() {}
        }
        filler.finish().expect("no panic");
        fast.finish().expect("no panic");
        for request in bulk {
            request.finish().expect("no panic");
        }

        let order = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let fast_at = order
            .iter()
            .position(|r| *r == fast_read)
            .expect("interactive read was mapped");
        // Picks after the interactive batch was enqueued but before it was
        // picked: everything in the log past the parked filler batch.
        let overtaken = fast_at.saturating_sub(1);
        prop_assert!(
            overtaken <= max_ahead,
            "interactive batch picked behind {} lower-priority batches \
             (max_ahead = {}), pick order {:?}",
            overtaken,
            max_ahead,
            order
        );
        engine.shutdown();
    }
}
