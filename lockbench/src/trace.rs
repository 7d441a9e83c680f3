//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans stay in memory while the run measures and
//! are written out when it ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept in memory per recorder; past this, spans still count
/// toward their layer's totals but are not stored.
const SPAN_CAP: usize = 1 << 18;

/// One timed call: `parent` is the span that caused it (0 = none) and
/// `op` groups the spans of one benchmark operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals of every span recorded, stored or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
}

impl Totals {
    /// Mean span length in nanoseconds (NaN with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A span recorder for one thread.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
    totals: Vec<(&'static str, Totals)>,
}

impl Recorder {
    /// A recorder whose span times count from `epoch`; `id_base`
    /// keeps span ids of different threads apart.
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Recorder {
            epoch,
            next_id: id_base,
            spans: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that ran from `start_ns` to `end_ns`; returns its
    /// id for use as a child's parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.alloc_id();
        self.record_as(id, name, parent, op, start_ns, end_ns);
        id
    }

    /// A fresh span id, for a span whose children are recorded before
    /// it ends (see [`Recorder::record_as`]).
    pub fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a span under an id from [`Recorder::alloc_id`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let len = end_ns.saturating_sub(start_ns);
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => {
                t.count += 1;
                t.total_ns += len;
            }
            None => self.totals.push((
                name,
                Totals {
                    count: 1,
                    total_ns: len,
                },
            )),
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Times `f` as a span.
    #[inline]
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, op, start, end);
        out
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (name, t) in other.totals {
            match self.totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.count += t.count;
                    mine.total_ns += t.total_ns;
                }
                None => self.totals.push((name, t)),
            }
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        let keep = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - keep) as u64;
        self.spans.extend_from_slice(&other.spans[..keep]);
    }

    pub fn stored(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the stored spans as tab-separated lines
    /// `id parent op name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
