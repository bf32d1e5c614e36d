//! The metrics registry: names + label sets mapped to typed handles.
//!
//! A [`Registry`] is the rendezvous point between instrumentation and
//! export. Call sites ask for a handle once (`counter` / `gauge` /
//! `histogram` are get-or-create and idempotent) and record through it
//! with relaxed atomics; exporters call [`Registry::snapshot`] and
//! render the returned [`MetricsSnapshot`] as a Prometheus-style text
//! dump or JSON. Handle lookup takes a lock; recording never does —
//! the registry maps are only touched at registration and snapshot
//! time, both off the hot path.
//!
//! The [`global`] registry is the process-wide instance the training
//! loop mirrors its report counters into; subsystems that need
//! isolation (each [`SelectorServer`] generation set, every test)
//! create their own.
//!
//! [`SelectorServer`]: ../dnnspmv_core/struct.SelectorServer.html

use crate::histogram::{bucket_low, HistogramSnapshot, LatencyHistogram, BUCKETS};
use crate::metrics::{Counter, Gauge};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A metric identity: name plus an ordered label set.
///
/// Labels are sorted at construction so `{a="1", b="2"}` and
/// `{b="2", a="1"}` are the same metric.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`snake_case`, unit-suffixed: `_total`, `_ns`).
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{k="v",...}` (bare name without labels).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }

    fn render_with(&self, extra: &[(&str, String)]) -> String {
        let mut all: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
            .collect();
        all.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))));
        if all.is_empty() {
            self.name.clone()
        } else {
            format!("{}{{{}}}", self.name, all.join(","))
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[derive(Debug, Default)]
struct Inner {
    counters: RwLock<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<MetricKey, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<LatencyHistogram>>>,
}

/// A set of named metrics (see module docs). Cheap to clone: clones
/// share the same metric cells.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.counters.write().expect("counter map");
        let cell = map.entry(key).or_default();
        Counter::from_shared(Arc::clone(cell))
    }

    /// The gauge `name{labels}`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.gauges.write().expect("gauge map");
        let cell = map.entry(key).or_default();
        Gauge::from_shared(Arc::clone(cell))
    }

    /// The histogram `name{labels}`, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LatencyHistogram> {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.histograms.write().expect("histogram map");
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// A point-in-time copy of every metric, sorted by name and labels
    /// (deterministic render order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .expect("counter map")
            .iter()
            .map(|(k, c)| (k.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .expect("gauge map")
            .iter()
            .map(|(k, g)| (k.clone(), g.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .expect("histogram map")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry. The training loop mirrors its
/// `TrainReport` counters here; servers use private registries.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A consistent, sorted copy of a [`Registry`]'s metrics — the single
/// source every exporter and report view renders from.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(key, value)` for every counter, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// `(key, value)` for every gauge, sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
    /// `(key, snapshot)` for every histogram, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter `name{labels}` (`None` if never created).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Snapshot of the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Prometheus-style text exposition.
    ///
    /// Counters and gauges render one sample per label set; histograms
    /// render summary-style (`{quantile="0.5"|"0.99"|"1"}` plus `_sum`
    /// and `_count`), because the fixed log-scale buckets make exact
    /// quantiles available at snapshot time and 976 cumulative `le`
    /// lines per histogram would drown the dump.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_deref() != Some(name) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_type = Some(name.to_string());
            }
        };
        for (key, v) in &self.counters {
            type_line(&mut out, &key.name, "counter");
            out.push_str(&format!("{} {v}\n", key.render()));
        }
        for (key, v) in &self.gauges {
            type_line(&mut out, &key.name, "gauge");
            out.push_str(&format!("{} {v}\n", key.render()));
        }
        for (key, h) in &self.histograms {
            type_line(&mut out, &key.name, "summary");
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (1.0, "1")] {
                out.push_str(&format!(
                    "{} {}\n",
                    key.render_with(&[("quantile", label.to_string())]),
                    h.quantile(q)
                ));
            }
            let mut sum_key = key.clone();
            sum_key.name = format!("{}_sum", key.name);
            out.push_str(&format!("{} {}\n", sum_key.render(), h.sum));
            let mut count_key = key.clone();
            count_key.name = format!("{}_count", key.name);
            out.push_str(&format!("{} {}\n", count_key.render(), h.count));
        }
        out
    }

    /// The snapshot as one JSON object (hand-rolled — this crate takes
    /// no dependencies). Histogram buckets are sparse
    /// `[index, inclusive lower bound, count]` triples, so a consumer
    /// can add or subtract dumps bucket-wise without this crate.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        push_scalars(&mut out, &self.counters, |v| v.to_string());
        out.push_str("],\"gauges\":[");
        push_scalars(&mut out, &self.gauges, |v| v.to_string());
        out.push_str("],\"histograms\":[");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},{}\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                json_str(&key.name),
                json_labels(&key.labels),
                h.count,
                h.sum,
                if h.is_empty() { 0 } else { h.min },
                h.max,
                h.p50(),
                h.p99(),
            ));
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{b},{},{c}]", bucket_low(b)));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn push_scalars<V: Copy>(out: &mut String, rows: &[(MetricKey, V)], fmt: impl Fn(V) -> String) {
    for (i, (key, v)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},{}\"value\":{}}}",
            json_str(&key.name),
            json_labels(&key.labels),
            fmt(*v)
        ));
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return "\"labels\":{},".to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("\"labels\":{{{}}},", body.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Number of buckets a JSON bucket index may range over (re-exported
/// for dump consumers that validate indices).
pub const JSON_BUCKETS: usize = BUCKETS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("k", "v")]);
        let b = r.counter("x_total", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(
            r.snapshot().counter("x_total", &[("k", "v")]),
            Some(2),
            "same key, same cell"
        );
        // Label order does not create a second metric.
        let c = r.counter("y_total", &[("a", "1"), ("b", "2")]);
        let d = r.counter("y_total", &[("b", "2"), ("a", "1")]);
        c.inc();
        d.inc();
        assert_eq!(
            r.snapshot().counter("y_total", &[("a", "1"), ("b", "2")]),
            Some(2)
        );
    }

    #[test]
    fn snapshot_orders_and_renders_deterministically() {
        let r = Registry::new();
        r.counter("b_total", &[]).inc();
        r.counter("a_total", &[("z", "1")]).add(3);
        r.gauge("depth", &[]).set(-2);
        r.histogram("lat_ns", &[("phase", "steady")]).record(5);
        let s = r.snapshot();
        let text = s.to_prometheus();
        let a = text.find("a_total{z=\"1\"} 3").expect("a_total");
        let b = text.find("b_total 1").expect("b_total");
        assert!(a < b, "sorted by name:\n{text}");
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -2"));
        assert!(text.contains("lat_ns{phase=\"steady\",quantile=\"0.5\"} 5"));
        assert!(text.contains("lat_ns_count{phase=\"steady\"} 1"));
        // Two identical registries render identically.
        assert_eq!(text, r.snapshot().to_prometheus());
    }

    #[test]
    fn json_dump_is_wellformed_enough_to_eyeball() {
        let r = Registry::new();
        r.counter("req_total", &[("outcome", "ok\"weird")]).inc();
        r.histogram("lat_ns", &[]).record(100);
        let j = r.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ok\\\"weird\""), "{j}");
        assert!(j.contains("\"count\":1"));
        assert!(j.contains("\"buckets\":[["));
    }

    #[test]
    fn global_registry_is_one_instance() {
        global().counter("obs_selftest_total", &[]).inc();
        let v = global()
            .snapshot()
            .counter("obs_selftest_total", &[])
            .unwrap();
        assert!(v >= 1);
    }
}
