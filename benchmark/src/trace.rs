//! The span buffer of the traced pass.
//!
//! The wrappers in [`crate::interpose`] sit outside the crates, at their
//! public traits, and push one span per call here: name, start, end, the
//! span that caused it, the op it belongs to, and the bytes it moved. The
//! buffer stays in memory until the pass ends; [`aggregate`] then turns it
//! into per-name totals with self time = span minus children.
//!
//! The buffer is thread-local because `ErasureCode` is `Send + Sync` and the
//! client is one thread: a wrapper needs no handle, and a span costs two
//! clock reads and a `Vec` push.

use std::cell::RefCell;
use std::time::Instant;

/// Every span the wrappers record. The part before the dot is the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    StorageStore,
    StorageRetrieve,
    StorageDelete,
    StorageCompact,
    StorageRepair,
    CodesEncode,
    CodesDecode,
    CodesRepair,
    WalAppend,
    WalSync,
    WalDropPrefix,
    WalRead,
    WalTruncate,
    DeviceWrite,
    DeviceFsync,
    DeviceRead,
    DeviceReplace,
    DeviceUnlink,
    TransportInstall,
    TransportFetch,
    TransportOther,
}

impl Name {
    pub const ALL: [Name; 21] = [
        Name::StorageStore,
        Name::StorageRetrieve,
        Name::StorageDelete,
        Name::StorageCompact,
        Name::StorageRepair,
        Name::CodesEncode,
        Name::CodesDecode,
        Name::CodesRepair,
        Name::WalAppend,
        Name::WalSync,
        Name::WalDropPrefix,
        Name::WalRead,
        Name::WalTruncate,
        Name::DeviceWrite,
        Name::DeviceFsync,
        Name::DeviceRead,
        Name::DeviceReplace,
        Name::DeviceUnlink,
        Name::TransportInstall,
        Name::TransportFetch,
        Name::TransportOther,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::StorageStore => "storage.store",
            Name::StorageRetrieve => "storage.retrieve",
            Name::StorageDelete => "storage.delete",
            Name::StorageCompact => "storage.compact",
            Name::StorageRepair => "storage.repair",
            Name::CodesEncode => "codes.encode",
            Name::CodesDecode => "codes.decode",
            Name::CodesRepair => "codes.repair",
            Name::WalAppend => "wal.append",
            Name::WalSync => "wal.sync",
            Name::WalDropPrefix => "wal.drop_prefix",
            Name::WalRead => "wal.read",
            Name::WalTruncate => "wal.truncate",
            Name::DeviceWrite => "device.write",
            Name::DeviceFsync => "device.fsync",
            Name::DeviceRead => "device.read",
            Name::DeviceReplace => "device.replace",
            Name::DeviceUnlink => "device.unlink",
            Name::TransportInstall => "transport.install",
            Name::TransportFetch => "transport.fetch",
            Name::TransportOther => "transport.other",
        }
    }

    pub fn layer(self) -> &'static str {
        self.as_str().split('.').next().expect("names have a layer")
    }
}

/// Index of a span in the buffer; `NO_PARENT` for a root.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
    pub bytes: u64,
}

struct Buffer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op_id: u64,
}

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer {
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        op_id: 0,
    });
}

/// Open a span; the caller closes it with [`close`]. The buffer is not
/// borrowed in between, so child spans may open.
pub fn open(name: Name) -> u32 {
    BUFFER.with_borrow_mut(|b| {
        let index = b.spans.len() as u32;
        let parent = b.stack.last().copied().unwrap_or(NO_PARENT);
        b.stack.push(index);
        let start_ns = b.origin.elapsed().as_nanos() as u64;
        b.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: b.op_id,
            bytes: 0,
        });
        index
    })
}

/// Close the innermost open span, which moved `bytes` bytes.
pub fn close(index: u32, bytes: u64) {
    BUFFER.with_borrow_mut(|b| {
        let end_ns = b.origin.elapsed().as_nanos() as u64;
        let popped = b.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        let span = &mut b.spans[index as usize];
        span.end_ns = end_ns;
        span.bytes = bytes;
    });
}

/// Run `f` inside a span that moves `bytes` bytes.
pub fn span<R>(name: Name, bytes: u64, f: impl FnOnce() -> R) -> R {
    let index = open(name);
    let result = f();
    close(index, bytes);
    result
}

/// [`span`] when `enabled`, a plain call otherwise: for code that runs both
/// traced and untraced.
pub fn span_if<R>(enabled: bool, name: Name, bytes: u64, f: impl FnOnce() -> R) -> R {
    if enabled {
        span(name, bytes, f)
    } else {
        f()
    }
}

/// Spans opened from now on belong to op `op_id`.
pub fn set_op(op_id: u64) {
    BUFFER.with_borrow_mut(|b| b.op_id = op_id);
}

/// Take every finished span out of the buffer (set-up's spans are dropped
/// this way before the measured phase starts).
pub fn drain() -> Vec<Span> {
    BUFFER.with_borrow_mut(|b| {
        assert!(b.stack.is_empty(), "drain inside an open span");
        std::mem::take(&mut b.spans)
    })
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub ns: u64,
    /// `ns` minus the time covered by child spans.
    pub self_ns: u64,
    pub bytes: u64,
}

/// Per-name totals, indexed by `Name as usize`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals(pub [Total; Name::ALL.len()]);

impl Totals {
    pub fn get(&self, name: Name) -> Total {
        self.0[name as usize]
    }

    /// Sum over every name of one layer.
    pub fn layer(&self, layer: &str) -> Total {
        let mut sum = Total::default();
        for name in Name::ALL.iter().filter(|n| n.layer() == layer) {
            let t = self.get(*name);
            sum.calls += t.calls;
            sum.ns += t.ns;
            sum.self_ns += t.self_ns;
            sum.bytes += t.bytes;
        }
        sum
    }
}

pub fn aggregate(spans: &[Span]) -> Totals {
    let mut totals = Totals::default();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    for (s, children) in spans.iter().zip(&child_ns) {
        let t = &mut totals.0[s.name as usize];
        let ns = s.end_ns - s.start_ns;
        t.calls += 1;
        t.ns += ns;
        t.self_ns += ns.saturating_sub(*children);
        t.bytes += s.bytes;
    }
    totals
}

/// Write the spans as CSV (`--trace-out`).
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,start_ns,end_ns,parent,op_id,bytes")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            parent,
            s.op_id,
            s.bytes
        )?;
    }
    out.flush()
}
