//! The one fork-join path of the build.
//!
//! The four data-parallel passes — bulk WHOIS parsing, MRT body decoding,
//! owner-name cleaning and the 𝓡/𝓐 group build — cut their input into
//! contiguous shards, hand them to [`run_shards`], and fold the results in
//! shard order. Because each shard covers a contiguous run of the input
//! and results come back in shard order, the folded output is the same at
//! any thread count. Shard 0 always runs inline on the caller's thread, a
//! single shard included. Two independent steps of the build run side by
//! side through [`run_beside`], a two-shard fork of the same runner:
//! `store::load_inputs`'s two ingest lanes, and the freeze, the thaw check
//! and the teardown beside the export, the frame digest and the artifact
//! writes. DO/DC resolution and the freeze are one pass each, traced
//! through [`traced`] as the single shard is.
//!
//! The runner records trace spans, never stage timers: the run report
//! lists the same per-layer stages at every thread count, and per-shard
//! timing lives only in the trace.

use crate::{Obs, Span};

/// How many shards `n` work items split into on `threads` workers: one,
/// run inline, when `threads <= 1` or there are fewer than two items per
/// worker; `threads` otherwise.
pub fn shard_count(threads: usize, n: usize) -> usize {
    if threads <= 1 || n < 2 * threads {
        1
    } else {
        threads
    }
}

/// Cuts `items` into the contiguous shards of a [`shard_count`] fan-out,
/// each at most `ceil(len / shards)` long. A single shard is the whole
/// slice, even when it is empty, so there is always at least one.
pub fn split_shards<T>(items: &[T], threads: usize) -> Vec<&[T]> {
    match shard_count(threads, items.len()) {
        1 => vec![items],
        shards => items.chunks(items.len().div_ceil(shards)).collect(),
    }
}

/// Runs `work` on every shard and returns the results in shard order.
///
/// Shard 0 runs inline on the calling thread and every other shard on a
/// scoped thread of its own, so a single shard spawns nothing and the
/// first shard's allocations land in the caller's malloc arena, where
/// the later passes of the build reuse them. With tracing on in `obs`,
/// every shard records one `name` span, on a thread log of that name,
/// tagged with its `shard` index; `work` receives the span to attach more
/// arguments. A panicking shard re-raises its panic on the caller once
/// the other shards have finished.
pub fn run_shards<S, T, F>(obs: Option<&Obs>, name: &str, shards: Vec<S>, work: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S, Option<&Span<'_>>) -> T + Sync,
{
    let run = |idx: usize, shard: S| {
        traced(obs, name, |span| {
            if let Some(s) = span {
                s.arg("shard", idx);
            }
            work(shard, span)
        })
    };
    let mut shards = shards.into_iter().enumerate();
    let Some((_, first)) = shards.next() else {
        return Vec::new();
    };
    let run = &run;
    std::thread::scope(|scope| {
        let rest: Vec<_> = shards
            .map(|(idx, shard)| scope.spawn(move || run(idx, shard)))
            .collect();
        let mut results = Vec::with_capacity(rest.len() + 1);
        results.push(run(0, first));
        results.extend(rest.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        results
    })
}

/// Which of two lanes [`run_beside`] runs first at one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOrder {
    /// The calling thread's lane, then the other.
    CallerFirst,
    /// The other lane, then the calling thread's.
    OtherFirst,
}

/// One lane of [`run_beside`], or what it returned.
enum Lane<C, O> {
    Caller(C),
    Other(O),
}

/// Runs two independent lanes side by side and returns both results. At
/// `threads > 1` they are one [`run_shards`] fork: `caller` is shard 0, on
/// the calling thread, and `other` runs on a thread of its own. At one
/// thread each runs inline as a fork of its own, in `order`. Either way
/// each lane records one `name` span, tagged `lane` with the label it
/// comes with.
pub fn run_beside<C, O, FC, FO>(
    obs: Option<&Obs>,
    name: &str,
    threads: usize,
    order: LaneOrder,
    caller: (&str, FC),
    other: (&str, FO),
) -> (C, O)
where
    C: Send,
    O: Send,
    FC: FnOnce() -> C + Send,
    FO: FnOnce() -> O + Send,
{
    let work = |(label, lane): (&str, Lane<FC, FO>), span: Option<&Span<'_>>| {
        if let Some(s) = span {
            s.arg("lane", label);
        }
        match lane {
            Lane::Caller(run) => Lane::Caller(run()),
            Lane::Other(run) => Lane::Other(run()),
        }
    };
    let (caller, other) = (
        (caller.0, Lane::Caller(caller.1)),
        (other.0, Lane::Other(other.1)),
    );
    let forks = match (threads > 1, order) {
        (true, _) => vec![vec![caller, other]],
        (false, LaneOrder::CallerFirst) => vec![vec![caller], vec![other]],
        (false, LaneOrder::OtherFirst) => vec![vec![other], vec![caller]],
    };
    let (mut ran_caller, mut ran_other) = (None, None);
    for output in forks
        .into_iter()
        .flat_map(|lanes| run_shards(obs, name, lanes, work))
    {
        match output {
            Lane::Caller(c) => ran_caller = Some(c),
            Lane::Other(o) => ran_other = Some(o),
        }
    }
    (
        ran_caller.expect("the caller's lane ran"),
        ran_other.expect("the other lane ran"),
    )
}

/// Runs `work` inline on the calling thread. With tracing on in `obs`, it
/// records one `name` span, on a thread log of that name, and `work`
/// receives the span to attach arguments.
pub fn traced<T>(obs: Option<&Obs>, name: &str, work: impl FnOnce(Option<&Span<'_>>) -> T) -> T {
    let log = obs.and_then(|o| o.thread_log(name));
    let span = log.as_ref().map(|l| l.span(name));
    work(span.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TracePhase;

    #[test]
    fn shard_count_fans_out_only_with_two_items_per_worker() {
        assert_eq!(shard_count(0, 100), 1);
        assert_eq!(shard_count(1, 100), 1);
        assert_eq!(shard_count(4, 7), 1);
        assert_eq!(shard_count(4, 8), 4);
        assert_eq!(split_shards::<u8>(&[], 4), vec![&[] as &[u8]]);
        let items: Vec<u32> = (0..9).collect();
        let shards = split_shards(&items, 4);
        assert_eq!(shards, vec![&items[0..3], &items[3..6], &items[6..9]]);
        assert_eq!(split_shards(&items, 1), vec![&items[..]]);
    }

    #[test]
    fn results_come_back_in_shard_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let sums = run_shards(None, "sum", split_shards(&items, threads), |s, _| {
                (s[0], s.iter().sum::<u64>())
            });
            assert_eq!(sums.len(), shard_count(threads, items.len()));
            assert!(sums.windows(2).all(|w| w[0].0 < w[1].0), "{sums:?}");
            assert_eq!(sums.iter().map(|s| s.1).sum::<u64>(), 499_500);
        }
    }

    /// Shard 0 runs on the calling thread, a single shard included; every
    /// other shard runs on a thread of its own.
    #[test]
    fn a_single_shard_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_shards(None, "one", vec![()], |_, _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
        for shards in [2, 3] {
            let ids = run_shards(None, "more", vec![(); shards], |_, _| {
                std::thread::current().id()
            });
            assert_eq!(ids[0], caller, "{shards} shards");
            for (i, id) in ids.iter().enumerate().skip(1) {
                assert_ne!(*id, caller, "shard {i} of {shards}");
                assert!(ids[..i].iter().all(|other| other != id), "shard {i}");
            }
        }
        assert!(run_shards(None, "none", Vec::<()>::new(), |_, _| ()).is_empty());
    }

    #[test]
    fn each_shard_gets_one_span_carrying_its_index() {
        for shards in [1usize, 3] {
            let obs = Obs::new();
            obs.enable_tracing();
            run_shards(Some(&obs), "work", (0..shards).collect(), |i, span| {
                span.expect("tracing is on").arg("item", i);
            });
            let trace = obs.take_trace();
            assert_eq!(trace.span_count("work"), shards);
            let mut tagged: Vec<(String, String)> = trace
                .threads
                .iter()
                .inspect(|t| assert_eq!(t.name, "work"))
                .flat_map(|t| &t.events)
                .filter(|e| e.phase == TracePhase::Begin)
                .map(|e| (e.args[0].1.clone(), e.args[1].1.clone()))
                .collect();
            tagged.sort();
            let want: Vec<(String, String)> = (0..shards)
                .map(|i| (i.to_string(), i.to_string()))
                .collect();
            assert_eq!(tagged, want);
            // The runner adds spans only, never stage rows.
            assert!(obs.report().stages.is_empty());
        }
    }

    /// The caller's lane runs on the calling thread beside the other, or
    /// at one thread both run there in the order asked; each records one
    /// span either way.
    #[test]
    fn two_lanes_run_beside_each_other_or_in_order_at_one_thread() {
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 4] {
            for order in [LaneOrder::CallerFirst, LaneOrder::OtherFirst] {
                let obs = Obs::new();
                obs.enable_tracing();
                let ran = std::sync::Mutex::new(Vec::new());
                let lane = |name: &'static str| {
                    ran.lock().unwrap().push(name);
                    std::thread::current().id()
                };
                let (c, o) = run_beside(
                    Some(&obs),
                    "lane",
                    threads,
                    order,
                    ("caller", || (lane("caller"), 'c')),
                    ("other", || (lane("other"), 7u8)),
                );
                assert_eq!((c.0, c.1, o.1), (caller, 'c', 7), "threads {threads}");
                if threads == 1 {
                    assert_eq!(o.0, caller);
                    let want = match order {
                        LaneOrder::CallerFirst => ["caller", "other"],
                        LaneOrder::OtherFirst => ["other", "caller"],
                    };
                    assert_eq!(*ran.lock().unwrap(), want);
                } else {
                    assert_ne!(o.0, caller, "threads {threads}");
                }
                let trace = obs.take_trace();
                let mut tags: Vec<String> = trace
                    .threads
                    .iter()
                    .flat_map(|t| &t.events)
                    .filter(|e| e.phase == TracePhase::Begin)
                    .map(|e| e.args[1].1.clone())
                    .collect();
                tags.sort();
                assert_eq!(tags, ["caller", "other"], "threads {threads}");
            }
        }
    }

    /// A panic in either lane reaches the caller, at any thread count.
    #[test]
    fn a_panicking_lane_propagates() {
        for threads in [1usize, 2] {
            for order in [LaneOrder::CallerFirst, LaneOrder::OtherFirst] {
                for failing in ["caller", "other"] {
                    let lane = |name: &'static str| {
                        move || -> u8 {
                            if name == failing {
                                panic!("the {name} lane failed");
                            }
                            1
                        }
                    };
                    let caught = std::panic::catch_unwind(|| {
                        run_beside(
                            None,
                            "lane",
                            threads,
                            order,
                            ("caller", lane("caller")),
                            ("other", lane("other")),
                        )
                    });
                    let payload = caught.expect_err("the panic must reach the caller");
                    assert_eq!(
                        payload.downcast_ref::<String>(),
                        Some(&format!("the {failing} lane failed")),
                        "threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_runs_inline_under_one_span() {
        let obs = Obs::new();
        obs.enable_tracing();
        let caller = std::thread::current().id();
        let ran_on = traced(Some(&obs), "pass", |span| {
            span.expect("tracing is on").arg("items", 3);
            std::thread::current().id()
        });
        assert_eq!(ran_on, caller);
        assert!(traced(None, "pass", |span| span.is_none()));
        let trace = obs.take_trace();
        assert_eq!(trace.span_count("pass"), 1);
        assert_eq!(trace.threads[0].name, "pass");
    }

    #[test]
    fn a_panicking_shard_propagates() {
        for shards in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_shards(None, "boom", (0..shards).collect(), |i, _| {
                    if i == shards - 1 {
                        panic!("shard {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("panic payload is the shard's message");
            assert_eq!(message, &format!("shard {} failed", shards - 1));
        }
    }
}
