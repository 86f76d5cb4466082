//! Cost-model sensitivity — how robust are the paper's conclusions?
//!
//! The reproduction calibrates `CostModel` constants against the paper's
//! anchors; a fair question is whether the headline conclusions depend on
//! the exact values. This experiment perturbs the three most influential
//! constants (process wakeup latency, per-packet copy bandwidth, and the
//! application-preemption cost) by ±50 % and re-measures the two headline
//! ratios:
//!
//! * `rate_ratio` — Table I, 0 B: default-coalescing rate / disabled rate
//!   (paper: ≈1.9×; the claim is "more than a factor of two"),
//! * `latency_ratio` — Fig. 5, small messages: timeout latency / disabled
//!   latency (paper: ≈7.5×; the claim is "latency inflates to the delay").
//!
//! A conclusion is robust when the ratio stays on the same side of 1 with a
//! healthy margin across the whole perturbation range.

use crate::report::Table;
use omx_core::prelude::*;

/// Which constant is being perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// `proc_wakeup_ns` — blocked-process wakeup latency.
    ProcWakeup,
    /// `copy_bytes_per_us` — receive-path copy bandwidth.
    CopyBandwidth,
    /// `irq_preempt_ns` — application-disturbance cost per interrupt.
    IrqPreempt,
}

impl Knob {
    /// All perturbed knobs.
    pub const ALL: [Knob; 3] = [Knob::ProcWakeup, Knob::CopyBandwidth, Knob::IrqPreempt];

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Knob::ProcWakeup => "proc_wakeup_ns",
            Knob::CopyBandwidth => "copy_bytes_per_us",
            Knob::IrqPreempt => "irq_preempt_ns",
        }
    }

    fn apply(&self, costs: &mut omx_host::CostModel, scale: f64) {
        let s = |v: u64| ((v as f64) * scale).round().max(1.0) as u64;
        match self {
            Knob::ProcWakeup => costs.proc_wakeup_ns = s(costs.proc_wakeup_ns),
            Knob::CopyBandwidth => costs.copy_bytes_per_us = s(costs.copy_bytes_per_us),
            Knob::IrqPreempt => costs.irq_preempt_ns = s(costs.irq_preempt_ns),
        }
    }
}

/// One perturbation's measurements.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Perturbed knob.
    pub knob: String,
    /// Multiplier applied to the calibrated value.
    pub scale: f64,
    /// Default-coalescing / disabled message-rate ratio (0 B messages).
    pub rate_ratio: f64,
    /// Timeout / disabled small-message latency ratio.
    pub latency_ratio: f64,
}

/// Full study.
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    /// One row per (knob, scale), plus the calibrated baseline.
    pub rows: Vec<SensitivityRow>,
}

fn measure(knob: Option<(Knob, f64)>, messages: u32) -> (f64, f64) {
    let build = |strategy: CoalescingStrategy| {
        let mut builder = ClusterBuilder::new().nodes(2).strategy(strategy);
        if let Some((k, scale)) = knob {
            k.apply(&mut builder.config_mut().host.costs, scale);
        }
        builder.build()
    };
    // Rate ratio (Table I, 0 B).
    let spec = StreamSpec {
        msg_len: 0,
        messages,
        window: 32,
    };
    let default_rate = build(CoalescingStrategy::Timeout { delay_us: 75 })
        .run_stream(spec)
        .msgs_per_sec;
    let disabled_rate = build(CoalescingStrategy::Disabled)
        .run_stream(spec)
        .msgs_per_sec;
    // Latency ratio (Fig. 5, 8 B).
    let pp = PingPongSpec {
        msg_len: 8,
        iterations: 30,
        warmup: 5,
    };
    let timeout_lat = build(CoalescingStrategy::Timeout { delay_us: 75 })
        .run_pingpong(pp)
        .half_rtt_ns as f64;
    let disabled_lat = build(CoalescingStrategy::Disabled)
        .run_pingpong(pp)
        .half_rtt_ns as f64;
    (default_rate / disabled_rate, timeout_lat / disabled_lat)
}

/// Run the study.
pub fn run(messages: u32) -> SensitivityResult {
    let mut jobs: Vec<Option<(Knob, f64)>> = vec![None];
    for knob in Knob::ALL {
        for scale in [0.5, 0.75, 1.25, 1.5] {
            jobs.push(Some((knob, scale)));
        }
    }
    let rows = omx_sim::pool::map(jobs, |job| {
        let (rate_ratio, latency_ratio) = measure(job, messages);
        match job {
            None => SensitivityRow {
                knob: "baseline (calibrated)".to_string(),
                scale: 1.0,
                rate_ratio,
                latency_ratio,
            },
            Some((knob, scale)) => SensitivityRow {
                knob: knob.label().to_string(),
                scale,
                rate_ratio,
                latency_ratio,
            },
        }
    });
    SensitivityResult { rows }
}

/// Format as a table.
pub fn table(r: &SensitivityResult) -> Table {
    let mut t = Table::new(vec![
        "knob",
        "scale",
        "default/disabled rate",
        "timeout/disabled latency",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.knob.clone(),
            format!("{:.2}", row.scale),
            format!("{:.2}x", row.rate_ratio),
            format!("{:.2}x", row.latency_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conclusions_survive_50_percent_perturbations() {
        let r = run(600);
        for row in &r.rows {
            // The rate conclusion (coalescing helps message rate) and the
            // latency conclusion (the timeout ruins small latency) must hold
            // for every perturbation, with margin.
            assert!(
                row.rate_ratio > 1.3,
                "{} x{}: rate ratio collapsed to {:.2}",
                row.knob,
                row.scale,
                row.rate_ratio
            );
            assert!(
                row.latency_ratio > 3.0,
                "{} x{}: latency ratio collapsed to {:.2}",
                row.knob,
                row.scale,
                row.latency_ratio
            );
        }
        // And the baseline sits near the paper's observed ratios.
        let base = r
            .rows
            .iter()
            .find(|x| x.knob.starts_with("baseline"))
            .unwrap();
        assert!((1.6..2.6).contains(&base.rate_ratio), "{}", base.rate_ratio);
        assert!(
            (5.0..16.0).contains(&base.latency_ratio),
            "{}",
            base.latency_ratio
        );
    }
}

omx_sim::impl_to_json!(SensitivityRow {
    knob,
    scale,
    rate_ratio,
    latency_ratio
});
omx_sim::impl_to_json!(SensitivityResult { rows });
