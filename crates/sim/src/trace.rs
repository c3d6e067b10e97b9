//! Human-readable iteration traces for debugging and teaching.
//!
//! A [`BspIteration`](crate::BspIteration) knows everything that happened
//! in a round; [`IterationTrace`] renders it as an annotated timeline so
//! a failed expectation ("why did the master wait for worker 5?") can be
//! answered by eye:
//!
//! ```text
//! t=0.000  round starts (broadcast done)
//! t=1.000  W3 compute done                      [#######       ]
//! t=1.003  W3 arrives at master (1/4 needed)
//! ...
//! t=2.003  decode! workers {0,1,3} carry weight
//! ```
//!
//! The adaptive telemetry loop annotates the same timeline with its own
//! decisions: [`IterationTrace::with_deadline`] marks where a learned
//! escalation deadline fired (`t=1.840 deadline fires (p90 est.) → Group
//! plan`) and [`IterationTrace::with_note`] records free-form events such
//! as a mid-run re-code.

use std::fmt::Write as _;

use crate::bsp::BspIteration;

/// A renderable trace of one simulated BSP iteration.
#[derive(Debug, Clone)]
pub struct IterationTrace<'a> {
    iteration: &'a BspIteration,
    /// Extra timeline annotations `(time, line)` merged chronologically
    /// into the rendered event list.
    notes: Vec<(f64, String)>,
}

impl<'a> IterationTrace<'a> {
    /// Wraps an iteration outcome for rendering.
    pub fn new(iteration: &'a BspIteration) -> Self {
        IterationTrace {
            iteration,
            notes: Vec::new(),
        }
    }

    /// Annotates the escalation decision of this round: the (learned)
    /// deadline fired at `at`, with `source` naming where the deadline
    /// came from (e.g. `"p90 est."`) and `outcome` the plan the ladder
    /// settled on (e.g. `"Group plan"`, `"Approx plan (ρ=0.31)"`).
    ///
    /// Renders as `t=1.840 deadline fires (p90 est.) → Group plan`.
    pub fn with_deadline(self, at: f64, source: &str, outcome: &str) -> Self {
        self.with_note(at, format!("deadline fires ({source}) → {outcome}"))
    }

    /// Adds a free-form annotation at time `at` — the hook the adaptive
    /// loop uses to mark re-code events on the timeline
    /// (`t=0.000 re-code: new allocation installed`).
    pub fn with_note(mut self, at: f64, note: impl Into<String>) -> Self {
        self.notes.push((at, note.into()));
        self
    }

    /// Renders the chronological event list, the decode included: the
    /// arrival that completed the decodable set is tagged, and every
    /// arrival the master did not take in renders as unused.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "t=0.000    round starts (broadcast done)");
        let it = self.iteration;
        let decode_line = it.completion.map(|t| {
            (
                t,
                format!(
                    "t={t:<8.3} DECODE: weight on workers {:?}",
                    it.plan.workers()
                ),
            )
        });
        // The last arrival the master took in fired the decode when the
        // round ended at its instant; an escalation at the deadline fires
        // between arrivals.
        let fired = it.completion.and_then(|t| {
            let last = it.absorbed.checked_sub(1)?;
            (it.arrivals[last].arrive == t).then_some(last)
        });
        // Chronological merge of worker events, the decode and annotations
        // (a stable sort: the decode lands right after the arrival that
        // fired it).
        let mut events: Vec<(f64, String)> = Vec::new();
        for (i, arr) in it.arrivals.iter().enumerate() {
            if !arr.compute_end.is_finite() {
                continue; // failures render last, at t=∞
            }
            events.push((
                arr.compute_end,
                format!("t={:<8.3} W{} compute done", arr.compute_end, arr.worker),
            ));
            let marker = match (fired == Some(i), it.completion) {
                (true, _) => "  ← decode fires here",
                (false, Some(_)) if i >= it.absorbed => "  (late: result unused)",
                _ => "",
            };
            events.push((
                arr.arrive,
                format!(
                    "t={:<8.3} W{} arrives at master{}",
                    arr.arrive, arr.worker, marker
                ),
            ));
            if fired == Some(i) {
                events.extend(decode_line.clone());
            }
        }
        if fired.is_none() {
            events.extend(decode_line);
        }
        for (at, note) in &self.notes {
            events.push((*at, format!("t={at:<8.3} {note}")));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (_, line) in &events {
            let _ = writeln!(out, "{line}");
        }
        for arr in &it.arrivals {
            if !arr.compute_end.is_finite() {
                let _ = writeln!(out, "t=∞        W{} never responds (failed)", arr.worker);
            }
        }
        if it.completion.is_none() {
            let _ = writeln!(out, "round never decodes (too many failures)");
        }
        out
    }

    /// Renders a proportional ASCII Gantt chart of worker busy time
    /// (compute = `#`, idle-until-decode = `.`), `width` columns spanning
    /// the iteration.
    pub fn gantt(&self, width: usize) -> String {
        let Some(t_end) = self.iteration.completion else {
            return String::from("(no completion: gantt unavailable)\n");
        };
        if t_end <= 0.0 || width == 0 {
            return String::new();
        }
        let mut out = String::new();
        for arr in &self.iteration.arrivals {
            let busy = self.iteration.busy.get(arr.worker).copied().unwrap_or(0.0);
            let busy_cols = ((busy / t_end) * width as f64).round() as usize;
            let busy_cols = busy_cols.min(width);
            let _ = write!(out, "W{:<3} |", arr.worker);
            for _ in 0..busy_cols {
                out.push('#');
            }
            for _ in busy_cols..width {
                out.push('.');
            }
            let _ = writeln!(out, "| busy {busy:.3}s / {t_end:.3}s");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::{simulate_bsp_iteration, BspIterationConfig};
    use crate::network::NetworkModel;
    use hetgc_cluster::StragglerEvent;
    use hetgc_coding::heter_aware;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iteration(fail: Option<usize>) -> BspIteration {
        let rates = [1.0, 2.0, 3.0, 4.0, 4.0];
        let mut rng = StdRng::seed_from_u64(3);
        let code = heter_aware(&rates, 7, 1, &mut rng).unwrap();
        let cfg = BspIterationConfig::new(&rates).network(NetworkModel::instantaneous());
        let mut events = vec![StragglerEvent::Normal; 5];
        if let Some(w) = fail {
            events[w] = StragglerEvent::Failed;
        }
        simulate_bsp_iteration(&code, &cfg, &events, &mut rng).unwrap()
    }

    #[test]
    fn render_contains_all_workers_and_decode() {
        let it = iteration(None);
        let trace = IterationTrace::new(&it).render();
        for w in 0..5 {
            assert!(
                trace.contains(&format!("W{w}")),
                "missing W{w} in:\n{trace}"
            );
        }
        assert!(trace.contains("DECODE"));
        assert!(trace.contains("round starts"));
    }

    #[test]
    fn nan_note_renders() {
        // A caller's note at a NaN time still renders (after every finite
        // event) instead of panicking the sort.
        let it = iteration(None);
        let trace = IterationTrace::new(&it)
            .with_note(f64::NAN, "unknown instant")
            .with_note(0.5, "half a second in")
            .render();
        assert!(trace.contains("unknown instant"));
        assert!(trace.contains("half a second in"));
        assert!(trace.contains("DECODE"));
    }

    #[test]
    fn render_marks_failures() {
        let it = iteration(Some(2));
        let trace = IterationTrace::new(&it).render();
        assert!(trace.contains("W2 never responds"));
        assert!(trace.contains("DECODE"));
    }

    #[test]
    fn gantt_rows_and_bounds() {
        let it = iteration(None);
        let g = IterationTrace::new(&it).gantt(20);
        assert_eq!(g.lines().count(), 5);
        for line in g.lines() {
            let bar: String = line
                .chars()
                .skip_while(|&c| c != '|')
                .take_while(|&c| c != ' ')
                .collect();
            assert!(bar.len() <= 22 + 1, "bar too wide: {line}");
        }
    }

    #[test]
    fn gantt_without_completion() {
        let rates = [1.0, 1.0];
        let code = hetgc_coding::naive(2).unwrap();
        let cfg = BspIterationConfig::new(&rates);
        let events = vec![StragglerEvent::Failed, StragglerEvent::Normal];
        let mut rng = StdRng::seed_from_u64(4);
        let it = simulate_bsp_iteration(&code, &cfg, &events, &mut rng).unwrap();
        let g = IterationTrace::new(&it).gantt(10);
        assert!(g.contains("unavailable"));
        let r = IterationTrace::new(&it).render();
        assert!(r.contains("never decodes"));
    }

    #[test]
    fn gantt_zero_width_empty() {
        let it = iteration(None);
        assert!(IterationTrace::new(&it).gantt(0).is_empty());
    }

    #[test]
    fn deadline_annotation_renders_inline_and_in_time_order() {
        let it = iteration(None);
        let trace = IterationTrace::new(&it)
            .with_deadline(1.84, "p90 est.", "Group plan")
            .render();
        assert!(
            trace.contains("deadline fires (p90 est.) → Group plan"),
            "{trace}"
        );
        // The annotation lands between the events that bracket t=1.84.
        let deadline_pos = trace.find("deadline fires").unwrap();
        for line in trace.lines() {
            if let Some(t) = line
                .strip_prefix("t=")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|t| t.parse::<f64>().ok())
            {
                let pos = trace.find(line).unwrap();
                if t < 1.84 - 1e-9 {
                    assert!(pos < deadline_pos, "event at t={t} after the deadline line");
                }
            }
        }
    }

    #[test]
    fn simultaneous_arrivals_tag_one_decode_in_time_order() {
        // Two equal-rate workers, each holding every partition (s = 1),
        // arrive together: the first push decodes, the second is unused.
        let rates = [1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(5);
        let code = heter_aware(&rates, 2, 1, &mut rng).unwrap();
        let cfg = BspIterationConfig::new(&rates).network(NetworkModel::instantaneous());
        let events = vec![StragglerEvent::Normal; 2];
        let it = simulate_bsp_iteration(&code, &cfg, &events, &mut rng).unwrap();
        let t = it.completion.unwrap();
        assert_eq!(it.arrivals[0].arrive, it.arrivals[1].arrive);
        let trace = IterationTrace::new(&it)
            .with_note(t + 1.0, "after the decode")
            .render();
        assert_eq!(trace.matches("decode fires here").count(), 1, "{trace}");
        let lines: Vec<&str> = trace.lines().collect();
        let pos = |needle: &str| lines.iter().position(|l| l.contains(needle)).unwrap();
        let fired = pos("decode fires here");
        assert!(lines[fired].contains("W0 arrives"), "{trace}");
        assert_eq!(pos("DECODE"), fired + 1, "{trace}");
        let unused = pos("W1 arrives");
        assert!(unused > fired + 1, "{trace}");
        assert!(lines[unused].contains("result unused"), "{trace}");
        assert_eq!(pos("after the decode"), lines.len() - 1, "{trace}");
    }

    #[test]
    fn recode_note_renders() {
        let it = iteration(Some(2));
        let trace = IterationTrace::new(&it)
            .with_note(0.0, "re-code: new allocation installed (drift on W2)")
            .render();
        assert!(trace.contains("re-code: new allocation installed"));
        assert!(trace.contains("W2 never responds"));
    }
}
