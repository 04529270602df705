//! Which push completes which frame window, and when each push is due.
//!
//! A session's frame window `[t, t + WINDOW_S)` completes on the first
//! push of that session carrying a reading with `time_s ≥ t + WINDOW_S`
//! (a frame push carries its window's end time). The prediction for it
//! has `time_s = t + WINDOW_S`, and its latency runs from that push's
//! scheduled send time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Frame window length (paper default), seconds.
pub const WINDOW_S: f64 = 0.5;

/// Sliding history of the served model, in frames.
pub const HISTORY: usize = 12;

/// Windows that only fill the ring: the first prediction comes from
/// window index `HISTORY - 1`.
pub const WARMUP_WINDOWS: u64 = HISTORY as u64 - 1;

/// End time of window `k` (exact: multiples of 0.5 are representable).
pub fn window_end(k: u64) -> f64 {
    (k + 1) as f64 * WINDOW_S
}

/// The window whose end time is exactly `time_s`.
pub fn window_of_end(time_s: f64) -> Option<u64> {
    let k = (time_s / WINDOW_S).round() as i64 - 1;
    (k >= 0 && window_end(k as u64) == time_s).then_some(k as u64)
}

/// `true` for windows after the ring warm-up, which must each yield
/// exactly one prediction.
pub fn expects_prediction(k: u64) -> bool {
    k >= WARMUP_WINDOWS
}

/// Per-session window bookkeeping over the pushes that were enqueued.
#[derive(Debug, Clone, Default)]
pub struct WindowClock {
    next: u64,
}

impl WindowClock {
    /// Windows completed by a push whose latest reading is at
    /// `max_time` (`None` for a push without readings).
    pub fn advance(&mut self, max_time: Option<f64>) -> Range<u64> {
        let first = self.next;
        if let Some(t) = max_time {
            while window_end(self.next) <= t {
                self.next += 1;
            }
        }
        first..self.next
    }

    /// Windows completed so far: `0..completed()`.
    pub fn completed(&self) -> u64 {
        self.next
    }
}

/// Open-loop send schedule: every session sends one push each
/// `interval_s`, shifted by its own phase (in pushes), starting from
/// push `first`. Pushes come out in due order across sessions.
#[derive(Debug, Clone)]
pub struct Schedule {
    interval_s: f64,
    first: u64,
    phase: Vec<f64>,
    next_push: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Schedule {
    pub fn new(interval_s: f64, first: u64, phase: Vec<f64>) -> Self {
        let mut s = Schedule {
            interval_s,
            first,
            next_push: vec![first; phase.len()],
            phase,
            heap: BinaryHeap::new(),
        };
        for i in 0..s.phase.len() {
            s.enqueue(i);
        }
        s
    }

    fn due_s(&self, session: usize, push: u64) -> f64 {
        ((push - self.first) as f64 + self.phase[session]) * self.interval_s
    }

    fn enqueue(&mut self, session: usize) {
        let due_ns = (self.due_s(session, self.next_push[session]) * 1e9).round() as u64;
        self.heap.push(Reverse((due_ns, session)));
    }

    /// Due time of the next push, seconds after the schedule's start.
    pub fn peek_due(&self) -> f64 {
        let Reverse((_, s)) = *self.heap.peek().expect("schedule never runs dry");
        self.due_s(s, self.next_push[s])
    }

    /// Next push as `(session, push index, due seconds)`.
    pub fn pop(&mut self) -> (usize, u64, f64) {
        let Reverse((_, s)) = self.heap.pop().expect("schedule never runs dry");
        let j = self.next_push[s];
        let due = self.due_s(s, j);
        self.next_push[s] += 1;
        self.enqueue(s);
        (s, j, due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reader-mode session: 5 rounds of 0.1 s per window, readings at
    /// each antenna slot of the round.
    fn round_max_time(j: u64) -> Option<f64> {
        Some(j as f64 * 0.1 + 0.075)
    }

    #[test]
    fn window_completes_on_first_round_past_its_end() {
        let mut clock = WindowClock::default();
        // Rounds 0..=4 hold window 0's reads; nothing completes.
        for j in 0..5 {
            assert!(clock.advance(round_max_time(j)).is_empty(), "round {j}");
        }
        // Round 5 carries t ≥ 0.5: window 0 completes.
        assert_eq!(clock.advance(round_max_time(5)), 0..1);
        assert!(clock.advance(None).is_empty());
        // A gap closes several windows at once.
        assert_eq!(clock.advance(Some(2.0)), 1..4);
    }

    #[test]
    fn frame_pushes_complete_their_own_window() {
        let mut clock = WindowClock::default();
        for k in 0..30 {
            assert_eq!(clock.advance(Some(window_end(k))), k..k + 1);
            assert_eq!(window_of_end(window_end(k)), Some(k));
        }
        assert_eq!(window_of_end(0.75), None);
    }

    #[test]
    fn ring_warmup_windows_expect_no_prediction() {
        let expected: Vec<u64> = (0..14).filter(|&k| expects_prediction(k)).collect();
        assert_eq!(expected, vec![11, 12, 13]);
    }

    #[test]
    fn staggered_sessions_complete_windows_at_their_own_due_times() {
        // Two reader sessions after a 60-round warm-up, one push per
        // 1 ms, phases 0 and 2.5 pushes (half a window apart).
        let mut sched = Schedule::new(1e-3, 60, vec![0.0, 2.5]);
        let mut clocks = vec![WindowClock::default(); 2];
        for c in clocks.iter_mut() {
            for j in 0..60 {
                c.advance(round_max_time(j));
            }
        }
        let mut completions = Vec::new();
        let mut last_due = 0.0;
        for _ in 0..40 {
            let (s, j, due) = sched.pop();
            assert!(due >= last_due, "pushes come out in due order");
            last_due = due;
            for k in clocks[s].advance(round_max_time(j)) {
                completions.push((s, k, due));
            }
        }
        // Window 11 closes on round 60 — the first push after warm-up.
        assert_eq!(completions[0], (0, 11, 0.0));
        assert_eq!(completions[1], (1, 11, 2.5e-3));
        // Then one window per session every 5 pushes, staggered.
        let s1: Vec<(u64, f64)> = completions
            .iter()
            .filter(|c| c.0 == 1)
            .map(|c| (c.1, c.2))
            .collect();
        for (n, (k, due)) in s1.iter().enumerate() {
            assert_eq!(*k, 11 + n as u64);
            assert!((due - (5.0 * n as f64 + 2.5) * 1e-3).abs() < 1e-12);
            assert!(expects_prediction(*k));
        }
        assert_eq!(s1.len(), 4);
    }
}
