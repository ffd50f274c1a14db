//! The benchmark's own span recorder: one span per call into a layer,
//! recorded from outside the product (no product file is touched), kept in
//! memory and written to `benchmark/out/trace-<workload>.json` when a
//! traced run ends.

use mltc_oracle::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span log for one traced run of one workload.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` (a child of whichever span is
    /// open) and returns its result with the span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Writes every span as `{name, start_ns, end_ns, parent}` under the
    /// workload's id; `parent` indexes the same array and a root has none.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = BTreeMap::from([
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_ns".to_string(), Json::Num(s.start_ns)),
                    ("end_ns".to_string(), Json::Num(s.end_ns)),
                ]);
                if let Some(p) = s.parent {
                    fields.insert("parent".to_string(), Json::Num(p as u64));
                }
                Json::Obj(fields)
            })
            .collect();
        let doc = Json::Obj(BTreeMap::from([
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("spans".to_string(), Json::Arr(spans)),
        ]));
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut sp = Spans::new();
        let ((), outer) = sp.time("outer", |sp| {
            let ((), inner) = sp.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            assert!(inner >= 0.002);
        });
        assert!(outer >= 0.002);
        assert_eq!(sp.spans[0].parent, None);
        assert_eq!(sp.spans[1].parent, Some(0));
        assert!(sp.spans[0].end_ns >= sp.spans[1].end_ns);
    }
}
