//! The open-loop load generator.
//!
//! Pre-generated operations are due on a fixed-interval schedule. One sender
//! thread issues the writes at their due times and another the reads, and
//! one completion thread waits out the write handles: three client threads.
//! Every latency is timed from the operation's *due* time, not from when a
//! sender got round to it: a stall in the system under test is charged to
//! every request of that kind scheduled during it. The write sender never
//! waits for replies, so a slow system receives the same offered load as a
//! fast one; reads return inside the call, so a read that stalls holds up
//! the reads behind it, never the writes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// What an operation is, for the latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read-write transaction: issued by the write sender, resolved by the
    /// completion thread.
    Write,
    /// A read-only transaction served inside the issuing call.
    Read,
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed (or, for a read, returned).
    Committed,
    /// Aborted by transaction logic.
    Aborted,
    /// An error, a refusal, or still incomplete at the drain deadline.
    Failed,
}

/// The result of issuing one operation.
pub enum Issued<H> {
    /// Finished inside the call (a read).
    Done,
    /// In flight; the completion thread waits on the handle.
    Pending(H),
}

/// The system under test, as the generator sees it.
pub trait Target: Sync {
    /// One pre-generated operation.
    type Op: Sync;
    /// An in-flight write.
    type Handle: Send;

    /// The operation's kind.
    fn kind(&self, op: &Self::Op) -> Kind;

    /// Issues one operation (the sender thread of its kind).
    ///
    /// # Errors
    ///
    /// Any refusal or error; the operation counts as failed.
    fn issue(&self, op: &Self::Op) -> Result<Issued<Self::Handle>, String>;

    /// Waits for an in-flight write to resolve (completion thread).
    ///
    /// # Errors
    ///
    /// Any error; the operation counts as failed.
    fn wait(&self, handle: Self::Handle) -> Result<Outcome, String>;

    /// Unblocks every pending [`Target::wait`] after the drain deadline.
    fn abort(&self);
}

/// An edge of the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The window opens.
    Open,
    /// The window closes.
    Close,
}

/// The schedule of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Gap between consecutive due times (1 / offered rate).
    pub interval: Duration,
    /// Operations due before the measured window opens.
    pub warmup_ops: usize,
    /// Operations due inside the measured window.
    pub window_ops: usize,
    /// How long in-flight writes may take to resolve after the last one was
    /// issued before they count as failed.
    pub drain: Duration,
}

impl Plan {
    /// A plan offering `rate` operations per second for `warmup` and then
    /// for `window`.
    pub fn at_rate(rate: f64, warmup: Duration, window: Duration, drain: Duration) -> Plan {
        Plan {
            interval: Duration::from_secs_f64(1.0 / rate),
            warmup_ops: (warmup.as_secs_f64() * rate).round() as usize,
            window_ops: (window.as_secs_f64() * rate).round() as usize,
            drain,
        }
    }

    /// Total operations issued.
    pub fn total_ops(&self) -> usize {
        self.warmup_ops + self.window_ops
    }

    /// Due time of operation `i`, in nanoseconds from the schedule start.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.interval.as_nanos() as u64 * i as u64
    }

    /// Whether operation `i` falls inside the measured window.
    pub fn in_window(&self, i: usize) -> bool {
        (self.warmup_ops..self.total_ops()).contains(&i)
    }
}

/// Everything measured about one operation. Times are nanoseconds from the
/// schedule start; together they are the spans of one request: `gen.late`
/// (due → issue start), `fe.execute`/`fe.read` (issue start → issue end) and
/// `fe.wait` (wait start → done).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Read or write.
    pub kind: Kind,
    /// When the operation was due.
    pub due: u64,
    /// When the sender called into the system.
    pub issue_start: u64,
    /// When that call returned.
    pub issue_end: u64,
    /// When the completion thread started waiting (writes; else `issue_end`).
    pub wait_start: u64,
    /// When the operation finished; `None` if it failed.
    pub done: Option<u64>,
    /// How it ended.
    pub outcome: Outcome,
}

impl OpRecord {
    /// Due-to-done latency in milliseconds; a failure misses every limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.outcome, self.done) {
            (Outcome::Failed, _) | (_, None) => f64::INFINITY,
            (_, Some(done)) => done.saturating_sub(self.due) as f64 / 1e6,
        }
    }

    /// How late the sender issued the operation, in microseconds.
    pub fn late_us(&self) -> f64 {
        self.issue_start.saturating_sub(self.due) as f64 / 1e3
    }
}

/// Sleeps until `deadline` (no spinning: the machine has few cores).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Runs `ops` (one per due time, `plan.total_ops()` of them) against
/// `target`, calling `on_edge` on the caller's thread when the measured
/// window opens and again when it closes. The senders stay alive until the
/// window has closed, so per-thread readings taken at the edges see all of
/// their CPU. Returns one record per operation, in schedule order.
///
/// # Panics
///
/// Panics if `ops` does not match the plan or a client thread panics.
pub fn run<T: Target>(
    target: &T,
    ops: &[T::Op],
    plan: &Plan,
    mut on_edge: impl FnMut(Edge),
) -> Vec<OpRecord> {
    assert_eq!(ops.len(), plan.total_ops(), "one operation per due time");
    let start = Instant::now() + Duration::from_millis(5);
    let since = move |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let at = |i: usize| start + Duration::from_nanos(plan.due_ns(i));
    let handed_off = AtomicUsize::new(0);
    let resolved = AtomicUsize::new(0);
    // (op index, wait start, done, outcome), appended as writes resolve.
    let completions: Mutex<Vec<(usize, u64, u64, Outcome)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, T::Handle)>();
        let completer = std::thread::Builder::new()
            .name("pb-complete".into())
            .spawn_scoped(s, || {
                for (i, handle) in rx {
                    let wait_start = since(Instant::now());
                    let outcome = target.wait(handle).unwrap_or(Outcome::Failed);
                    let done = since(Instant::now());
                    completions
                        .lock()
                        .unwrap()
                        .push((i, wait_start, done, outcome));
                    resolved.fetch_add(1, Ordering::SeqCst);
                }
            })
            .expect("spawn completion thread");
        // One sender per kind, each keeping the due times of its own
        // operations, so a slow read never delays the writes due behind it.
        // Each waits on its release channel after its last operation, until
        // the window has closed.
        let mut releases = Vec::new();
        let senders: Vec<_> = [(Kind::Write, "pb-send"), (Kind::Read, "pb-read")]
            .into_iter()
            .map(|(kind, name)| {
                let (release, released) = mpsc::channel::<()>();
                releases.push(release);
                let (tx, handed_off) = (tx.clone(), &handed_off);
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn_scoped(s, move || {
                        let mut issued = Vec::new();
                        let mine = ops.iter().enumerate();
                        for (i, op) in mine.filter(|(_, op)| target.kind(op) == kind) {
                            sleep_until(at(i));
                            let t0 = Instant::now();
                            let result = target.issue(op);
                            let t1 = Instant::now();
                            let outcome = match result {
                                Ok(Issued::Pending(handle)) => {
                                    handed_off.fetch_add(1, Ordering::SeqCst);
                                    tx.send((i, handle)).expect("completion thread alive");
                                    None
                                }
                                Ok(Issued::Done) => Some(Outcome::Committed),
                                Err(_) => Some(Outcome::Failed),
                            };
                            issued.push((i, since(t0), since(t1), outcome));
                        }
                        drop(tx);
                        let _ = released.recv();
                        issued
                    })
                    .expect("spawn sender thread")
            })
            .collect();
        drop(tx);

        for (edge, due) in [
            (Edge::Open, plan.warmup_ops),
            (Edge::Close, plan.total_ops()),
        ] {
            sleep_until(at(due));
            on_edge(edge);
        }
        drop(releases);
        let mut issued: Vec<_> = senders
            .into_iter()
            .flat_map(|sender| sender.join().expect("sender thread panicked"))
            .collect();
        issued.sort_unstable_by_key(|&(i, ..)| i);

        let deadline = Instant::now() + plan.drain;
        while resolved.load(Ordering::SeqCst) < handed_off.load(Ordering::SeqCst)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Whatever has not resolved by now failed; late resolutions after
        // the abort below are ignored.
        let cutoff = since(Instant::now());
        if resolved.load(Ordering::SeqCst) < handed_off.load(Ordering::SeqCst) {
            target.abort();
        }
        completer.join().expect("completion thread panicked");

        let mut records: Vec<OpRecord> = issued
            .iter()
            .map(|&(i, issue_start, issue_end, outcome)| OpRecord {
                kind: target.kind(&ops[i]),
                due: plan.due_ns(i),
                issue_start,
                issue_end,
                wait_start: issue_end,
                done: outcome.filter(|o| *o != Outcome::Failed).map(|_| issue_end),
                outcome: outcome.unwrap_or(Outcome::Failed),
            })
            .collect();
        for &(i, wait_start, done, outcome) in completions.lock().unwrap().iter() {
            if done <= cutoff && outcome != Outcome::Failed {
                let r = &mut records[i];
                r.wait_start = wait_start;
                r.done = Some(done);
                r.outcome = outcome;
            }
        }
        records
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Condvar;

    const MS: u64 = 1_000_000;

    /// A fake system: every operation is a write that resolves at once,
    /// except that `read_at` is a read, issuing `stall_at` blocks for
    /// `stall`, and waiting on `hang_at` blocks until [`Target::abort`].
    struct Fake {
        stall_at: usize,
        stall: Duration,
        hang_at: Option<usize>,
        read_at: Option<usize>,
        aborted: Mutex<bool>,
        wake: Condvar,
        abort_called: AtomicBool,
    }

    impl Fake {
        fn new(stall_at: usize, stall: Duration, hang_at: Option<usize>) -> Fake {
            Fake {
                stall_at,
                stall,
                hang_at,
                read_at: None,
                aborted: Mutex::new(false),
                wake: Condvar::new(),
                abort_called: AtomicBool::new(false),
            }
        }
    }

    impl Target for Fake {
        type Op = usize;
        type Handle = usize;

        fn kind(&self, op: &usize) -> Kind {
            if Some(*op) == self.read_at {
                Kind::Read
            } else {
                Kind::Write
            }
        }

        fn issue(&self, op: &usize) -> Result<Issued<usize>, String> {
            if *op == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Ok(match self.kind(op) {
                Kind::Read => Issued::Done,
                Kind::Write => Issued::Pending(*op),
            })
        }

        fn wait(&self, handle: usize) -> Result<Outcome, String> {
            if Some(handle) == self.hang_at {
                let mut aborted = self.aborted.lock().unwrap();
                while !*aborted {
                    aborted = self.wake.wait(aborted).unwrap();
                }
                return Err("aborted".into());
            }
            Ok(Outcome::Committed)
        }

        fn abort(&self) {
            self.abort_called.store(true, Ordering::SeqCst);
            *self.aborted.lock().unwrap() = true;
            self.wake.notify_all();
        }
    }

    fn plan(ops: usize) -> Plan {
        Plan {
            interval: Duration::from_millis(1),
            warmup_ops: 0,
            window_ops: ops,
            drain: Duration::from_millis(200),
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_scheduled_during_it() {
        let fake = Fake::new(10, Duration::from_millis(40), None);
        let ops: Vec<usize> = (0..120).collect();
        let plan = plan(ops.len());
        let mut edges = Vec::new();
        let records = run(&fake, &ops, &plan, |edge| edges.push(edge));
        assert_eq!(edges, [Edge::Open, Edge::Close]);
        let stall_end = records[10].due + 40 * MS;
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.outcome, Outcome::Committed, "op {i}");
            assert_eq!(r.due, i as u64 * MS);
            let done = r.done.expect("resolved");
            if (10..50).contains(&i) {
                // Scheduled while op 10 blocked the sender: it cannot finish
                // before the stall ends, and its latency says so.
                assert!(done >= stall_end, "op {i} finished inside the stall");
                let carried = (stall_end - r.due) as f64 / 1e6;
                assert!(r.latency_ms() >= carried, "op {i} dropped the stall");
            }
            if (11..50).contains(&i) {
                assert!(r.late_us() >= (stall_end - r.due) as f64 / 1e3);
            }
        }
        // The sender catches up afterwards: the tail end is on time again.
        assert!(records[110].latency_ms() < 20.0);
        assert!(!fake.abort_called.load(Ordering::SeqCst));
    }

    #[test]
    fn a_slow_read_does_not_hold_up_the_writes_due_behind_it() {
        let mut fake = Fake::new(10, Duration::from_millis(40), None);
        fake.read_at = Some(10);
        let ops: Vec<usize> = (0..60).collect();
        let records = run(&fake, &ops, &plan(ops.len()), |_| {});
        assert_eq!(records[10].kind, Kind::Read);
        assert!(records[10].latency_ms() >= 40.0);
        // Behind a stalled single sender, op 11 would be 39 ms late.
        for r in &records[11..20] {
            assert_eq!(r.kind, Kind::Write);
            assert!(r.late_us() < 20_000.0, "{r:?}");
        }
    }

    #[test]
    fn an_operation_unresolved_at_the_drain_deadline_fails() {
        let fake = Fake::new(usize::MAX, Duration::ZERO, Some(7));
        let ops: Vec<usize> = (0..20).collect();
        let records = run(&fake, &ops, &plan(ops.len()), |_| {});
        assert!(fake.abort_called.load(Ordering::SeqCst));
        assert_eq!(records.len(), 20);
        assert_eq!(records[7].outcome, Outcome::Failed);
        assert!(records[7].latency_ms().is_infinite());
        // Writes queued behind the hung one resolved only after the
        // deadline, so they are failures too; the ones before it are not.
        assert!(records[..7].iter().all(|r| r.outcome == Outcome::Committed));
        assert!(records[8..].iter().all(|r| r.outcome == Outcome::Failed));
    }

    #[test]
    fn plan_counts_and_window() {
        let plan = Plan::at_rate(
            2000.0,
            Duration::from_secs(2),
            Duration::from_secs(10),
            Duration::from_secs(5),
        );
        assert_eq!(plan.warmup_ops, 4000);
        assert_eq!(plan.window_ops, 20_000);
        assert_eq!(plan.due_ns(4000), 2_000_000_000);
        assert!(!plan.in_window(3999));
        assert!(plan.in_window(4000));
        assert!(!plan.in_window(24_000));
    }
}
