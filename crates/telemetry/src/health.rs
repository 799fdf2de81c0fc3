//! The health watchdog: a periodic evaluator over the metrics
//! registry that turns raw counters into a typed [`HealthReport`].
//!
//! The registry answers "what are the numbers"; the watchdog answers
//! "is this deployment okay" — a judgment with memory, because the
//! most dangerous states are the quiet ones: a stage whose pool holds
//! tuples while the sealed watermark has stopped moving, a publisher
//! that stopped publishing *and* stopped heartbeating. Each
//! [`HealthWatchdog::evaluate`] call therefore compares against the
//! previous evaluation's snapshot, and records a
//! [`TraceDetail::HealthChanged`] journal event whenever the overall
//! [`HealthStatus`] transitions — the flight recorder keeps the exact
//! interleaving of engine events and health-state changes.
//!
//! Checks (each optional, gated by [`HealthConfig`]):
//!
//! - **Lag SLO** — any per-stage `engine_watermark_lag` p99 above
//!   [`HealthConfig::lag_slo_p99`] (twice the SLO escalates to
//!   `Critical`).
//! - **Shard skew** — per stage, max/mean of
//!   `engine_shard_routed_tuples_total` above
//!   [`HealthConfig::skew_ratio`] once enough tuples routed to judge.
//! - **Queue saturation** — any `server_subscriber_queue_depth` at or
//!   above [`HealthConfig::queue_saturation`] of the configured
//!   capacity (a full queue escalates to `Critical`).
//! - **Stuck stage** — pooled exchange input with no sealed-watermark
//!   progress since the previous evaluation.
//! - **Silent publisher** — publish frames and heartbeats both frozen
//!   since the previous evaluation while the stream has not reached
//!   EOS.

use crate::journal::{EventJournal, TraceDetail};
use crate::registry::{MetricSnapshot, MetricValue, MetricsRegistry};
use std::sync::{Arc, Mutex};

/// Overall (or per-check) condition, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HealthStatus {
    Healthy = 0,
    /// Degrading but serving: an SLO breach, skew, or saturation.
    Degraded = 1,
    /// Results are stalled or about to be lost.
    Critical = 2,
}

impl HealthStatus {
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    pub fn from_u8(tag: u8) -> Option<HealthStatus> {
        match tag {
            0 => Some(HealthStatus::Healthy),
            1 => Some(HealthStatus::Degraded),
            2 => Some(HealthStatus::Critical),
            _ => None,
        }
    }
}

/// One failed check. Passing checks are not reported — an empty
/// [`HealthReport::checks`] means everything passed.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthCheck {
    /// Stable check identifier, e.g. `lag_slo`, `shard_skew`,
    /// `queue_saturation`, `stuck_stage`, `silent_publisher`.
    pub name: String,
    pub status: HealthStatus,
    /// The observed value that tripped the check.
    pub value: f64,
    /// The configured threshold it tripped against.
    pub threshold: f64,
    /// Human-readable context (which stage, which subscriber, ...).
    pub detail: String,
}

/// A typed point-in-time health judgment.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The worst status across checks (`Healthy` when none failed).
    pub status: HealthStatus,
    /// Failed checks only, in evaluation order.
    pub checks: Vec<HealthCheck>,
    /// Evaluations performed so far, this one included. The
    /// stateful checks (stuck stage, silent publisher) need two; a
    /// report with `evaluations == 1` has not run them yet.
    pub evaluations: u64,
}

/// Watchdog thresholds. Every check can be disabled: an infinite SLO,
/// a zero capacity, a zero activity floor.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Per-stage watermark-lag p99 SLO in event-time units; breaches
    /// are `Degraded`, twice the SLO is `Critical`. `INFINITY`
    /// disables the check (the default — lag scale is app-defined).
    pub lag_slo_p99: f64,
    /// Max/mean routed-tuples ratio per stage before `shard_skew`
    /// fires.
    pub skew_ratio: f64,
    /// Tuples a stage must have routed before skew is judged (small
    /// samples skew trivially).
    pub skew_min_tuples: u64,
    /// Fraction of subscriber-queue capacity at which
    /// `queue_saturation` fires (`Degraded`); a full queue is
    /// `Critical`.
    pub queue_saturation: f64,
    /// The subscriber queue capacity the depth gauges are bounded by;
    /// 0 disables the saturation check (the server fills this in from
    /// its own config).
    pub subscriber_capacity: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            lag_slo_p99: f64::INFINITY,
            skew_ratio: 4.0,
            skew_min_tuples: 1024,
            queue_saturation: 0.8,
            subscriber_capacity: 0,
        }
    }
}

/// The evaluator handle; `Clone` shares the state, so a background
/// ticker and an on-demand wire endpoint see one transition history.
#[derive(Debug, Clone)]
pub struct HealthWatchdog {
    inner: Arc<WatchdogInner>,
}

#[derive(Debug)]
struct WatchdogInner {
    config: HealthConfig,
    registry: MetricsRegistry,
    journal: EventJournal,
    state: Mutex<WatchState>,
}

#[derive(Debug)]
struct WatchState {
    last_status: HealthStatus,
    prev_sealed: i64,
    prev_publish_activity: u64,
    evaluations: u64,
}

/// Sum a counter family across label sets.
fn counter_sum(metrics: &[MetricSnapshot], family: &str) -> u64 {
    metrics
        .iter()
        .filter(|m| m.family == family)
        .map(|m| match &m.value {
            MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

fn label<'a>(m: &'a MetricSnapshot, key: &str) -> &'a str {
    m.labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or("?")
}

impl HealthWatchdog {
    pub fn new(config: HealthConfig, registry: MetricsRegistry, journal: EventJournal) -> Self {
        HealthWatchdog {
            inner: Arc::new(WatchdogInner {
                config,
                registry,
                journal,
                state: Mutex::new(WatchState {
                    last_status: HealthStatus::Healthy,
                    prev_sealed: 0,
                    prev_publish_activity: 0,
                    evaluations: 0,
                }),
            }),
        }
    }

    pub fn config(&self) -> &HealthConfig {
        &self.inner.config
    }

    /// Run every check against a fresh registry snapshot, update the
    /// transition state, and journal a [`TraceDetail::HealthChanged`]
    /// if the overall status moved.
    pub fn evaluate(&self) -> HealthReport {
        let cfg = &self.inner.config;
        let metrics = self.inner.registry.snapshot();
        let mut checks: Vec<HealthCheck> = Vec::new();

        // Per-stage lag SLO over the watermark-lag sketches.
        if cfg.lag_slo_p99.is_finite() {
            for m in metrics
                .iter()
                .filter(|m| m.family == "engine_watermark_lag")
            {
                let MetricValue::Sketch(s) = &m.value else {
                    continue;
                };
                if s.count == 0 || s.p99 <= cfg.lag_slo_p99 {
                    continue;
                }
                let status = if s.p99 > 2.0 * cfg.lag_slo_p99 {
                    HealthStatus::Critical
                } else {
                    HealthStatus::Degraded
                };
                checks.push(HealthCheck {
                    name: "lag_slo".into(),
                    status,
                    value: s.p99,
                    threshold: cfg.lag_slo_p99,
                    detail: format!("stage {} watermark-lag p99 over SLO", label(m, "stage")),
                });
            }
        }

        // Shard skew: per stage, max/mean of routed tuples.
        {
            let mut stages: Vec<(String, Vec<u64>)> = Vec::new();
            for m in metrics
                .iter()
                .filter(|m| m.family == "engine_shard_routed_tuples_total")
            {
                let MetricValue::Counter(v) = m.value else {
                    continue;
                };
                let stage = label(m, "stage").to_string();
                match stages.iter_mut().find(|(s, _)| *s == stage) {
                    Some((_, v_list)) => v_list.push(v),
                    None => stages.push((stage, vec![v])),
                }
            }
            for (stage, routed) in stages {
                let total: u64 = routed.iter().sum();
                if routed.len() < 2 || total < cfg.skew_min_tuples {
                    continue;
                }
                let max = *routed.iter().max().expect("non-empty") as f64;
                let mean = total as f64 / routed.len() as f64;
                let ratio = max / mean;
                if ratio > cfg.skew_ratio {
                    checks.push(HealthCheck {
                        name: "shard_skew".into(),
                        status: HealthStatus::Degraded,
                        value: ratio,
                        threshold: cfg.skew_ratio,
                        detail: format!("stage {stage} hottest shard at {ratio:.2}x the mean"),
                    });
                }
            }
        }

        // Subscriber queue saturation against the configured bound.
        if cfg.subscriber_capacity > 0 {
            for m in metrics
                .iter()
                .filter(|m| m.family == "server_subscriber_queue_depth")
            {
                let MetricValue::Gauge(depth) = m.value else {
                    continue;
                };
                let frac = depth.max(0) as f64 / cfg.subscriber_capacity as f64;
                if frac >= cfg.queue_saturation {
                    let status = if frac >= 1.0 {
                        HealthStatus::Critical
                    } else {
                        HealthStatus::Degraded
                    };
                    checks.push(HealthCheck {
                        name: "queue_saturation".into(),
                        status,
                        value: frac,
                        threshold: cfg.queue_saturation,
                        detail: format!(
                            "subscriber {} outbox at {depth}/{}",
                            label(m, "client"),
                            cfg.subscriber_capacity
                        ),
                    });
                }
            }
        }

        // The stateful checks compare against the previous evaluation.
        let sealed = metrics
            .iter()
            .find(|m| m.family == "engine_watermark_sealed")
            .and_then(|m| match m.value {
                MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0);
        let pooled: i64 = metrics
            .iter()
            .filter(|m| m.family == "engine_stage_pool_depth")
            .map(|m| match m.value {
                MetricValue::Gauge(v) => v.max(0),
                _ => 0,
            })
            .sum();
        let publish_activity = counter_sum(&metrics, "server_publish_frames_total")
            + counter_sum(&metrics, "server_heartbeats_total");
        let eos = counter_sum(&metrics, "server_eos_total");

        let mut st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.evaluations > 0 {
            if pooled > 0 && sealed == st.prev_sealed {
                checks.push(HealthCheck {
                    name: "stuck_stage".into(),
                    status: HealthStatus::Critical,
                    value: pooled as f64,
                    threshold: 0.0,
                    detail: format!(
                        "{pooled} tuples pooled with no sealed-watermark progress since the \
                         previous evaluation (sealed={sealed})"
                    ),
                });
            }
            if publish_activity > 0 && publish_activity == st.prev_publish_activity && eos == 0 {
                checks.push(HealthCheck {
                    name: "silent_publisher".into(),
                    status: HealthStatus::Degraded,
                    value: publish_activity as f64,
                    threshold: 0.0,
                    detail: "no publish frames or heartbeats since the previous evaluation \
                             and the stream has not reached EOS"
                        .into(),
                });
            }
        }
        st.prev_sealed = sealed;
        st.prev_publish_activity = publish_activity;
        st.evaluations += 1;

        let status = checks
            .iter()
            .map(|c| c.status)
            .max()
            .unwrap_or(HealthStatus::Healthy);
        if status != st.last_status {
            self.inner.journal.record(TraceDetail::HealthChanged {
                from: st.last_status,
                to: status,
            });
            st.last_status = status;
        }
        let evaluations = st.evaluations;
        drop(st);

        HealthReport {
            status,
            checks,
            evaluations,
        }
    }

    /// The status the most recent evaluation settled on.
    pub fn last_status(&self) -> HealthStatus {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .last_status
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watchdog(config: HealthConfig) -> (HealthWatchdog, MetricsRegistry, EventJournal) {
        let registry = MetricsRegistry::new();
        let journal = EventJournal::new(64);
        let w = HealthWatchdog::new(config, registry.clone(), journal.clone());
        (w, registry, journal)
    }

    #[test]
    fn empty_registry_is_healthy() {
        let (w, _, _) = watchdog(HealthConfig::default());
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Healthy);
        assert!(r.checks.is_empty());
        assert_eq!(r.evaluations, 1);
    }

    #[test]
    fn lag_slo_breach_degrades_and_escalates() {
        let (w, registry, _) = watchdog(HealthConfig {
            lag_slo_p99: 100.0,
            ..HealthConfig::default()
        });
        let lag = registry.sketch_with("engine_watermark_lag", &[("stage", "0")]);
        for _ in 0..64 {
            lag.record(150.0);
        }
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.checks[0].name, "lag_slo");
        for _ in 0..512 {
            lag.record(500.0);
        }
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Critical, "2x SLO escalates");
    }

    #[test]
    fn shard_skew_fires_over_min_sample() {
        // With 2 shards max/mean is bounded by 2.0, so a 1.5x budget
        // catches the 990/10 split (ratio 1.98).
        let (w, registry, _) = watchdog(HealthConfig {
            skew_ratio: 1.5,
            skew_min_tuples: 100,
            ..HealthConfig::default()
        });
        registry
            .counter_with(
                "engine_shard_routed_tuples_total",
                &[("stage", "0"), ("shard", "0")],
            )
            .add(990);
        registry
            .counter_with(
                "engine_shard_routed_tuples_total",
                &[("stage", "0"), ("shard", "1")],
            )
            .add(10);
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.checks[0].name, "shard_skew");
        assert!(r.checks[0].value > 1.9);
    }

    #[test]
    fn queue_saturation_critical_when_full() {
        let (w, registry, _) = watchdog(HealthConfig {
            queue_saturation: 0.5,
            subscriber_capacity: 10,
            ..HealthConfig::default()
        });
        registry
            .gauge_with("server_subscriber_queue_depth", &[("client", "3")])
            .set(10);
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Critical);
        assert_eq!(r.checks[0].name, "queue_saturation");
    }

    #[test]
    fn stuck_stage_needs_two_evaluations() {
        let (w, registry, _) = watchdog(HealthConfig::default());
        registry
            .gauge_with("engine_stage_pool_depth", &[("stage", "1")])
            .set(42);
        registry.gauge("engine_watermark_sealed").set(1000);
        let r = w.evaluate();
        assert_eq!(
            r.status,
            HealthStatus::Healthy,
            "first evaluation has no baseline"
        );
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Critical);
        assert_eq!(r.checks[0].name, "stuck_stage");
        // Progress clears it.
        registry.gauge("engine_watermark_sealed").set(2000);
        assert_eq!(w.evaluate().status, HealthStatus::Healthy);
    }

    #[test]
    fn silent_publisher_detected_until_eos() {
        let (w, registry, _) = watchdog(HealthConfig::default());
        registry.counter("server_publish_frames_total").add(5);
        w.evaluate();
        let r = w.evaluate();
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.checks[0].name, "silent_publisher");
        // EOS reached: silence is the normal end state.
        registry.counter("server_eos_total").inc();
        assert_eq!(w.evaluate().status, HealthStatus::Healthy);
    }

    #[test]
    fn transitions_are_journaled_once() {
        let (w, registry, journal) = watchdog(HealthConfig {
            lag_slo_p99: 10.0,
            ..HealthConfig::default()
        });
        w.evaluate();
        assert_eq!(
            journal.all().len(),
            0,
            "healthy → healthy is not a transition"
        );
        let lag = registry.sketch_with("engine_watermark_lag", &[("stage", "0")]);
        for _ in 0..64 {
            lag.record(15.0);
        }
        w.evaluate();
        w.evaluate();
        let events = journal.all();
        assert_eq!(
            events.len(),
            1,
            "repeated degraded states journal one transition"
        );
        assert_eq!(
            events[0].detail,
            TraceDetail::HealthChanged {
                from: HealthStatus::Healthy,
                to: HealthStatus::Degraded,
            }
        );
        assert_eq!(w.last_status(), HealthStatus::Degraded);
    }
}
