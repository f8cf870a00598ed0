//! The closed loop: every caller sends its next request only after the
//! previous one is answered.  Callers run on their own threads and keep
//! their place in the stream from one phase (settle, measure, replay) to
//! the next, so a later phase never re-asks what an earlier one warmed.

use std::time::{Duration, Instant};

use crate::host;
use crate::stats::{line_digest, Rng};
use crate::system::{Phases, Requester};

/// Most samples one caller keeps of one phase.  The load generator runs in
/// the measured process, so its log is part of `peak_rss_mb`: it must not
/// grow with the rate a system answers at, or a faster server would read
/// as a hungrier one.  A caller that fills its log drops one sample of
/// every two and from then on keeps half as many (see [`Log`]).  At 32 bytes
/// a sample: 256 KiB for a caller on the wire, where the whole process
/// keeps some 23 MB resident, and 2 MiB for one in process, where it
/// keeps 58 MB or more and a tenth of a 10-s window's answers must still
/// be enough for a median.
pub const WIRE_LOG_CAP: usize = 8192;
pub const SESSION_LOG_CAP: usize = 65536;

/// One request as its caller saw it.  Kept to 32 bytes: see [`WIRE_LOG_CAP`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Completion time, µs after the phase started.
    pub done_us: f64,
    latency_us: f32,
    /// Stream line asked.
    index: u32,
    /// Digest of the canonical reply (never 0); 0 when the request failed
    /// (`ERR …`, timeout, closed connection).
    digest: u64,
    /// Present on traced requests.
    pub phases: Option<Box<Phases>>,
}

impl Sample {
    pub fn new(
        done_us: f64,
        latency_us: f64,
        index: usize,
        digest: Option<u64>,
        phases: Option<Phases>,
    ) -> Sample {
        Sample {
            done_us,
            latency_us: latency_us as f32,
            index: index as u32,
            digest: digest.unwrap_or(0),
            phases: phases.map(Box::new),
        }
    }

    pub fn latency_us(&self) -> f64 {
        f64::from(self.latency_us)
    }

    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// `None` when the request failed.
    pub fn digest(&self) -> Option<u64> {
        (self.digest != 0).then_some(self.digest)
    }
}

/// Keeps one sample of every consecutive two, either with equal chance,
/// until each kept sample stands for `to` requests instead of `stride`.
fn thin(samples: &mut Vec<Sample>, stride: &mut usize, to: usize, rng: &mut Rng) {
    while *stride < to {
        let mut position = 0usize;
        let mut keep_second = false;
        samples.retain(|_| {
            if position % 2 == 0 {
                keep_second = rng.below(2) == 1;
            }
            position += 1;
            (position % 2 == 0) == keep_second
        });
        *stride *= 2;
    }
}

/// One caller's bounded log of one phase: one request, picked at random,
/// of every `stride` consecutive ones, where `stride` doubles whenever
/// `cap` samples are in.  Every request is as likely to be kept as
/// any other, so the kept samples' percentiles are the phase's, and one is
/// kept per `stride` requests exactly, so counts of kept samples are
/// counts of requests.  (Keeping every `stride`-th request instead would
/// keep the same lines on every pass of a stream whose length the stride
/// divides, and report their mix of classes, not the stream's.)
struct Log {
    samples: Vec<Sample>,
    cap: usize,
    stride: usize,
    /// Which request of the current `stride` consecutive ones is kept.
    pick: usize,
    /// Requests completed (kept or not), and how many of them failed.
    answered: usize,
    failed: usize,
    rng: Rng,
}

impl Log {
    fn new(cap: usize, seed: u64) -> Log {
        Log {
            samples: Vec::with_capacity(cap),
            cap,
            stride: 1,
            pick: 0,
            answered: 0,
            failed: 0,
            rng: Rng::new(seed),
        }
    }

    /// Counts one completed request and keeps `make()` if it is the pick.
    fn record(&mut self, ok: bool, make: impl FnOnce() -> Sample) {
        if self.answered % self.stride == 0 {
            if self.samples.len() == self.cap {
                let doubled = self.stride * 2;
                thin(&mut self.samples, &mut self.stride, doubled, &mut self.rng);
            }
            self.pick = self.answered + self.rng.below(self.stride);
        }
        if self.answered == self.pick {
            self.samples.push(make());
        }
        self.answered += 1;
        self.failed += usize::from(!ok);
    }
}

/// What one phase of the loop produced.
pub struct PhaseResult {
    /// Kept samples of all callers, ordered by completion time: each
    /// stands for `stride` requests.  Requests still in flight when the
    /// phase ended are not among them.
    pub samples: Vec<Sample>,
    pub stride: usize,
    /// Requests completed in the phase, and how many of them failed.
    pub answered: usize,
    failed: usize,
    pub elapsed: Duration,
    /// CPU the caller threads themselves used, ms.
    pub client_cpu_ms: f64,
    /// First failure message, if any request failed.
    pub first_error: Option<String>,
}

/// One of the equal runs of consecutive correct answers a phase is cut
/// into, so that its figures can be taken run by run: a few seconds of
/// somebody else's load on the host then move a few runs, and the runs it
/// left alone still say what the program does.
pub struct Run {
    /// Completions per second: the run's answers over the time from the
    /// previous run's last completion to its own.  Unlike a count per
    /// fixed second this is a measured time, not a small integer.
    pub rate: f64,
    /// Ascending.
    pub latencies_ms: Vec<f64>,
}

impl PhaseResult {
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// This phase followed by `more`, as one phase.
    pub fn followed_by(mut self, mut more: PhaseResult) -> PhaseResult {
        let mut rng = Rng::new(self.answered as u64);
        thin(&mut self.samples, &mut self.stride, more.stride, &mut rng);
        thin(&mut more.samples, &mut more.stride, self.stride, &mut rng);
        let offset = self.elapsed.as_secs_f64() * 1e6;
        self.samples.extend(more.samples.into_iter().map(|mut s| {
            s.done_us += offset;
            s
        }));
        self.answered += more.answered;
        self.failed += more.failed;
        self.client_cpu_ms += more.client_cpu_ms;
        self.elapsed += more.elapsed;
        self.first_error = self.first_error.or(more.first_error);
        self
    }

    /// Correctly answered requests per second in each whole 1-s window.
    pub fn window_rates(&self) -> Vec<f64> {
        let windows = self.elapsed.as_secs() as usize;
        let mut counts = vec![0.0; windows];
        for sample in self.samples.iter().filter(|s| s.digest().is_some()) {
            let window = (sample.done_us / 1e6) as usize;
            if window < windows {
                counts[window] += self.stride as f64;
            }
        }
        counts
    }

    /// The phase cut into `runs` equal runs of consecutive correct answers
    /// (none when it has fewer answers than that).
    pub fn runs(&self, runs: usize) -> Vec<Run> {
        let good: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.digest().is_some())
            .collect();
        let per_run = good.len() / runs.max(1);
        if per_run == 0 {
            return Vec::new();
        }
        let mut previous_end = 0.0;
        good.chunks_exact(per_run)
            .take(runs)
            .map(|run| {
                let end = run[per_run - 1].done_us;
                let rate = (per_run * self.stride) as f64 / ((end - previous_end) / 1e6);
                previous_end = end;
                let mut latencies_ms: Vec<f64> = run.iter().map(|s| s.latency_us() / 1e3).collect();
                crate::stats::sort(&mut latencies_ms);
                Run { rate, latencies_ms }
            })
            .collect()
    }
}

/// When a phase of the loop ends.
#[derive(Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    /// At least this many requests in total, split evenly over callers.
    Requests(usize),
}

/// The callers of one workload and their places in the stream.
pub struct Driver<R> {
    callers: Vec<R>,
    /// Requests each caller has asked so far (its ordinal in its slice).
    asked: Vec<usize>,
    stream_len: usize,
    /// Stream position of the first request after the first pass.
    origin: usize,
    /// Most samples a caller keeps of one phase.
    log_cap: usize,
}

impl<R: Requester> Driver<R> {
    pub fn new(callers: Vec<R>, stream_len: usize, first_pass: usize, log_cap: usize) -> Self {
        Driver {
            asked: vec![0; callers.len()],
            callers,
            stream_len,
            origin: first_pass,
            log_cap,
        }
    }

    pub fn callers_mut(&mut self) -> &mut [R] {
        &mut self.callers
    }

    #[cfg(test)]
    pub fn into_callers(self) -> Vec<R> {
        self.callers
    }

    pub fn set_traced(&mut self, traced: bool) {
        for caller in &mut self.callers {
            caller.set_traced(traced);
        }
    }

    /// Runs every caller's closed loop until `until`.
    pub fn run(&mut self, until: Until) -> PhaseResult {
        let callers = self.callers.len();
        let stream_len = self.stream_len;
        let origin = self.origin;
        let log_cap = self.log_cap;
        let started = Instant::now();
        let mut per_caller: Vec<(Log, f64, Option<String>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .zip(self.asked.iter_mut())
                .enumerate()
                .map(|(caller, (requester, asked))| {
                    scope.spawn(move || {
                        let cpu_before = host::thread_cpu_ms();
                        let mut log = Log::new(log_cap, caller as u64);
                        let mut first_error = None;
                        let quota = match until {
                            Until::Requests(total) => total.div_ceil(callers),
                            Until::Elapsed(_) => usize::MAX,
                        };
                        let deadline = match until {
                            Until::Elapsed(d) => Some(started + d),
                            Until::Requests(_) => None,
                        };
                        let mut done = 0usize;
                        while done < quota {
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                break;
                            }
                            let index = (origin + *asked * callers + caller) % stream_len;
                            *asked += 1;
                            let answer = requester.ask(index);
                            let finished = Instant::now();
                            if deadline.is_some_and(|d| finished > d) {
                                // Crossed the end of the phase in flight.
                                break;
                            }
                            done += 1;
                            let digest = match &answer.reply {
                                Ok(line) => Some(line_digest(line)),
                                Err(error) => {
                                    first_error.get_or_insert_with(|| {
                                        format!("line {}: {error}", index + 1)
                                    });
                                    None
                                }
                            };
                            log.record(digest.is_some(), || {
                                Sample::new(
                                    finished.duration_since(started).as_secs_f64() * 1e6,
                                    answer.latency.as_secs_f64() * 1e6,
                                    index,
                                    digest,
                                    answer.phases,
                                )
                            });
                        }
                        (log, host::thread_cpu_ms() - cpu_before, first_error)
                    })
                })
                .collect();
            for handle in handles {
                per_caller.push(handle.join().expect("caller thread panicked"));
            }
        });
        let elapsed = match until {
            Until::Elapsed(d) => d,
            Until::Requests(_) => started.elapsed(),
        };
        // Every kept sample must stand for the same number of requests:
        // callers that kept more are thinned to the coarsest.
        let stride = per_caller.iter().map(|(log, ..)| log.stride).max();
        let stride = stride.unwrap_or(1);
        let mut samples = Vec::new();
        let (mut answered, mut failed) = (0, 0);
        let mut client_cpu_ms = 0.0;
        let mut first_error = None;
        for (mut log, cpu, error) in per_caller {
            thin(&mut log.samples, &mut log.stride, stride, &mut log.rng);
            samples.extend(log.samples);
            answered += log.answered;
            failed += log.failed;
            client_cpu_ms += cpu;
            first_error = first_error.or(error);
        }
        samples.sort_by(|a, b| a.done_us.partial_cmp(&b.done_us).expect("finite times"));
        PhaseResult {
            samples,
            stride,
            answered,
            failed,
            elapsed,
            client_cpu_ms,
            first_error,
        }
    }

    /// Warms the loop up: runs for at least `min_seconds` whole seconds and
    /// then on until two consecutive 1-s windows complete within 20 % of
    /// each other, giving up after `max_seconds`.  Returns every window's
    /// rate (the last two tell whether the loop settled).
    pub fn settle(&mut self, min_seconds: usize, max_seconds: usize) -> Vec<f64> {
        let mut rates: Vec<f64> = Vec::new();
        while rates.len() < max_seconds {
            let second = self.run(Until::Elapsed(Duration::from_secs(1)));
            rates.push(second.answered as f64);
            if rates.len() >= min_seconds && windows_agree(&rates) {
                break;
            }
        }
        rates
    }
}

/// Whether the last two windows are within 20 % of each other.
pub fn windows_agree(rates: &[f64]) -> bool {
    match rates {
        [.., a, b] => {
            let (lo, hi) = if a < b { (*a, *b) } else { (*b, *a) };
            hi > 0.0 && (hi - lo) / hi <= 0.20
        }
        _ => false,
    }
}

/// Share of windows whose rate is under half the best window's.
pub fn stall_share(rates: &[f64]) -> f64 {
    let best = rates.iter().cloned().fold(0.0, f64::max);
    if rates.is_empty() || best <= 0.0 {
        return 0.0;
    }
    rates.iter().filter(|&&r| r < best / 2.0).count() as f64 / rates.len() as f64
}

/// Whether the first and the last third of the window rates differ by
/// more than 2× — the measured window was not one steady state.
pub fn thirds_disagree(rates: &[f64]) -> bool {
    let third = rates.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
    let first = mean(&rates[..third]);
    let last = mean(&rates[rates.len() - third..]);
    let (lo, hi) = if first < last {
        (first, last)
    } else {
        (last, first)
    };
    hi > 2.0 * lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Answer;

    /// Answers instantly with the line index; fails every `fail_every`-th.
    struct Echo {
        fail_every: usize,
        asked: Vec<usize>,
    }

    impl Requester for Echo {
        fn ask(&mut self, index: usize) -> Answer {
            self.asked.push(index);
            let reply = if self.fail_every > 0 && self.asked.len().is_multiple_of(self.fail_every) {
                Err("ERR BUSY".to_string())
            } else {
                Ok(format!("TWOWAY {index}"))
            };
            Answer {
                latency: Duration::from_micros(5),
                reply,
                phases: None,
            }
        }

        fn set_traced(&mut self, _: bool) {}
    }

    fn echo(fail_every: usize) -> Echo {
        Echo {
            fail_every,
            asked: Vec::new(),
        }
    }

    #[test]
    fn callers_interleave_the_stream_and_keep_their_place() {
        let mut driver = Driver::new(vec![echo(0), echo(0)], 10, 4, 64);
        let first = driver.run(Until::Requests(4));
        assert_eq!(first.samples.len(), 4);
        let second = driver.run(Until::Requests(4));
        assert_eq!(second.failed(), 0);
        let callers = driver.into_callers();
        // Caller 0 takes origin, origin+2, …; caller 1 the lines between;
        // the stream wraps at its length.
        assert_eq!(callers[0].asked, vec![4, 6, 8, 0]);
        assert_eq!(callers[1].asked, vec![5, 7, 9, 1]);
    }

    #[test]
    fn failed_requests_are_counted_and_carry_no_digest() {
        let mut driver = Driver::new(vec![echo(3)], 100, 0, 64);
        let result = driver.run(Until::Requests(9));
        assert_eq!(result.samples.len(), 9);
        assert_eq!(result.failed(), 3);
        assert!(result.first_error.unwrap().contains("ERR BUSY"));
    }

    fn sample(done_us: f64, ok: bool) -> Sample {
        Sample::new(done_us, 1.0, 0, ok.then_some(1), None)
    }

    #[test]
    fn run_rates_time_equal_runs_of_answers() {
        // Four answers in the first half second, four in the next two
        // seconds; the failed request belongs to no run.
        let mut result = PhaseResult {
            samples: vec![
                sample(100_000.0, true),
                sample(200_000.0, true),
                sample(300_000.0, false),
                sample(400_000.0, true),
                sample(500_000.0, true),
                sample(1_000_000.0, true),
                sample(1_500_000.0, true),
                sample(2_000_000.0, true),
                sample(2_500_000.0, true),
            ],
            stride: 1,
            answered: 9,
            failed: 1,
            elapsed: Duration::from_secs(3),
            client_cpu_ms: 0.0,
            first_error: None,
        };
        let rates = |r: &PhaseResult, runs| r.runs(runs).iter().map(|run| run.rate).collect();
        let two: Vec<f64> = rates(&result, 2);
        assert_eq!(two, vec![8.0, 2.0]);
        assert_eq!(result.runs(2)[1].latencies_ms.len(), 4);
        assert_eq!(result.window_rates(), vec![4.0, 2.0, 2.0]);
        assert!(result.runs(20).is_empty());
        // Had every kept sample stood for four requests, the rates would
        // be four times these.
        result.stride = 4;
        let two: Vec<f64> = rates(&result, 2);
        assert_eq!(two, vec![32.0, 8.0]);
        assert_eq!(result.window_rates(), vec![16.0, 8.0, 8.0]);
    }

    #[test]
    fn a_full_log_keeps_one_request_in_every_stride_and_counts_them_all() {
        const LOG_CAP: usize = 1024;
        let mut log = Log::new(LOG_CAP, 7);
        let requests = 2 * LOG_CAP + 12;
        for i in 0..requests {
            log.record(i != 5, || sample(i as f64, i != 5));
        }
        // Full at LOG_CAP requests (stride 2 from then on), full again at
        // 2 × LOG_CAP (stride 4).
        assert_eq!(log.stride, 4);
        assert_eq!((log.answered, log.failed), (requests, 1));
        assert_eq!(log.samples.len(), LOG_CAP / 2 + 3);
        // One of requests 0..4, one of 4..8, …: not always the first.
        let mut offsets = [0usize; 4];
        for (group, kept) in log.samples.iter().enumerate() {
            let ordinal = kept.done_us as usize;
            assert_eq!(ordinal / 4, group);
            offsets[ordinal % 4] += 1;
        }
        assert!(offsets.iter().all(|&n| n > LOG_CAP / 16), "{offsets:?}");
        assert_eq!(std::mem::size_of::<Sample>(), 32);
    }

    #[test]
    fn phases_of_different_strides_join_at_the_coarser() {
        let phase = |count: usize, stride: usize| PhaseResult {
            samples: (0..count).map(|i| sample(i as f64, true)).collect(),
            stride,
            answered: count * stride,
            failed: 0,
            elapsed: Duration::from_secs(1),
            client_cpu_ms: 0.0,
            first_error: None,
        };
        let joined = phase(8, 1).followed_by(phase(3, 4));
        assert_eq!((joined.stride, joined.answered), (4, 20));
        let times: Vec<f64> = joined.samples.iter().map(|s| s.done_us).collect();
        assert_eq!(times.len(), 5);
        assert!(
            times[0] < 4.0 && (4.0..8.0).contains(&times[1]),
            "{times:?}"
        );
        assert_eq!(times[2..], [1e6, 1e6 + 1.0, 1e6 + 2.0]);
    }

    #[test]
    fn steadiness_rules() {
        assert!(windows_agree(&[15000.0, 100.0, 95.0]));
        assert!(!windows_agree(&[15000.0, 100.0]));
        assert!(!windows_agree(&[100.0]));
        assert_eq!(stall_share(&[16000.0, 15000.0, 100.0, 100.0]), 0.5);
        assert_eq!(stall_share(&[100.0, 104.0, 98.0]), 0.0);
        assert!(thirds_disagree(&[900.0, 800.0, 700.0, 300.0, 100.0, 100.0]));
        assert!(!thirds_disagree(&[100.0, 104.0, 98.0, 101.0, 99.0, 100.0]));
    }
}
