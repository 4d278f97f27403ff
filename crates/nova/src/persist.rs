//! The on-disk allocation-artifact cache behind
//! [`CompileConfigBuilder::persist_dir`](crate::CompileConfigBuilder::persist_dir).
//!
//! A session that solves a MILP bank allocation writes the *decision*
//! half of the result — the decoded [`Assignment`], its objective and
//! its [`AllocQuality`] record — to one file per allocation-cache key. A
//! later session (typically a restarted `nova-server`) with the same
//! configuration re-derives the same key, loads the assignment, and
//! rebuilds everything else deterministically
//! ([`nova_backend::readopt_assignment_with`]), skipping the solve: warm
//! restarts are bit-identical to cold compiles and pay only the cheap
//! phases.
//!
//! ## Format
//!
//! One entry per file, named `<key:016x>.novac`:
//!
//! ```text
//! magic   8 bytes  b"NOVACHE1"
//! version u32      bumped on any layout change (old files -> miss)
//! length  u64      payload byte count
//! check   u64      FNV-1a 64 over the payload
//! payload          fields in fixed order, little-endian, maps sorted
//! ```
//!
//! ## Corruption rules
//!
//! Loads are strict and total: a missing file is a **miss**; anything
//! else that is not a byte-perfect entry — short header, wrong magic or
//! version, length mismatch, checksum mismatch, out-of-range bank tag,
//! trailing bytes — is a **reject**. Both are clean cache misses (the
//! session falls back to a full solve); neither can panic or fail the
//! compile. Writes go through a temp file in the same directory and a
//! rename, so readers never observe a half-written entry, and write
//! errors are silently dropped (persistence is an accelerator, never a
//! correctness dependency).

use ixp_machine::Temp;
use nova_backend::alloc::{Assignment, IlpBank, PointId};
use nova_backend::AllocQuality;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"NOVACHE1";
const VERSION: u32 = 2;

/// The persisted slice of a solved allocation.
pub(crate) struct DiskEntry {
    pub objective: f64,
    pub quality: AllocQuality,
    pub asg: Assignment,
}

/// Outcome of one disk lookup, mirroring the
/// `session.cache.disk.{hit,miss,reject}` counters.
pub(crate) enum Load {
    Hit(Box<DiskEntry>),
    Miss,
    Reject,
}

/// A directory of persisted allocation entries.
pub(crate) struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) the cache directory. Returns `None`
    /// when the directory cannot be created — the session then simply
    /// runs without persistence.
    pub fn open(dir: &Path) -> Option<DiskCache> {
        std::fs::create_dir_all(dir).ok()?;
        Some(DiskCache {
            dir: dir.to_path_buf(),
        })
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.novac"))
    }

    /// Load the entry for `key`, classifying every failure mode.
    pub fn load(&self, key: u64) -> Load {
        let bytes = match std::fs::read(self.path(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Load::Miss,
            Err(_) => return Load::Reject,
        };
        match decode(&bytes) {
            Some(entry) => Load::Hit(Box::new(entry)),
            None => Load::Reject,
        }
    }

    /// Persist `entry` under `key`: temp file + rename, best effort.
    pub fn store(&self, key: u64, entry: &DiskEntry) {
        let bytes = encode(entry);
        let tmp = self
            .dir
            .join(format!("{key:016x}.tmp{}", std::process::id()));
        let write = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(&bytes)?;
            f.sync_all()
        });
        if write.is_ok() {
            let _ = std::fs::rename(&tmp, self.path(key));
        }
        let _ = std::fs::remove_file(&tmp);
    }
}

/// FNV-1a 64 — hand-rolled so the format has no hasher dependency and a
/// fixed cross-version definition.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- encoding ----

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn bank_tag(b: IlpBank) -> u8 {
    IlpBank::ALL
        .iter()
        .position(|x| *x == b)
        .expect("every bank is in ALL") as u8
}

/// Serialize the payload. Map iteration order is unspecified, so every
/// map is emitted in sorted key order: identical entries produce
/// identical files.
fn encode_payload(e: &DiskEntry) -> Vec<u8> {
    let mut out = Vec::new();
    put_f64(&mut out, e.objective);
    put_u8(&mut out, e.quality.stage);
    put_u8(&mut out, u8::from(e.quality.proven_optimal));
    put_f64(&mut out, e.quality.gap);
    put_u64(&mut out, e.quality.spills as u64);

    let placements = |m: &HashMap<(PointId, Temp), IlpBank>, out: &mut Vec<u8>| {
        let mut items: Vec<_> = m.iter().map(|((p, t), b)| (p.0, t.0, *b)).collect();
        items.sort_unstable_by_key(|(p, t, _)| (*p, *t));
        put_u64(out, items.len() as u64);
        for (p, t, b) in items {
            put_u32(out, p);
            put_u32(out, t);
            put_u8(out, bank_tag(b));
        }
    };
    placements(&e.asg.before, &mut out);
    placements(&e.asg.after, &mut out);

    let mut moves: Vec<_> = e.asg.moves.iter().collect();
    moves.sort_unstable_by_key(|(p, _)| p.0);
    put_u64(&mut out, moves.len() as u64);
    for (p, ms) in moves {
        put_u32(&mut out, p.0);
        put_u64(&mut out, ms.len() as u64);
        for (t, from, to) in ms {
            put_u32(&mut out, t.0);
            put_u8(&mut out, bank_tag(*from));
            put_u8(&mut out, bank_tag(*to));
        }
    }

    let mut colors: Vec<_> = e
        .asg
        .colors
        .iter()
        .map(|((t, b), c)| (t.0, *b, *c))
        .collect();
    colors.sort_unstable_by_key(|(t, b, _)| (*t, bank_tag(*b)));
    put_u64(&mut out, colors.len() as u64);
    for (t, b, c) in colors {
        put_u32(&mut out, t);
        put_u8(&mut out, bank_tag(b));
        put_u8(&mut out, c);
    }

    put_u64(&mut out, e.asg.n_moves as u64);
    put_u64(&mut out, e.asg.n_spills as u64);
    out
}

fn encode(e: &DiskEntry) -> Vec<u8> {
    frame(&encode_payload(e))
}

/// Wrap a payload in the header that names its length and checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, fnv1a(payload));
    out.extend_from_slice(payload);
    out
}

// ---- decoding ----

/// A strict little-endian cursor: every read is bounds-checked and any
/// failure propagates as `None` (a reject).
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A length prefix, sanity-capped by what the remaining bytes could
    /// possibly hold (`min_item` bytes per item) so a corrupt length
    /// cannot drive a huge allocation.
    fn len(&mut self, min_item: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n > (self.bytes.len() - self.at) / min_item.max(1) {
            return None;
        }
        Some(n)
    }

    fn bank(&mut self) -> Option<IlpBank> {
        IlpBank::ALL.get(usize::from(self.u8()?)).copied()
    }
}

fn decode(bytes: &[u8]) -> Option<DiskEntry> {
    let mut c = Cursor { bytes, at: 0 };
    if c.take(8)? != MAGIC || c.u32()? != VERSION {
        return None;
    }
    let len = usize::try_from(c.u64()?).ok()?;
    let check = c.u64()?;
    let payload = c.take(len)?;
    if c.at != bytes.len() || fnv1a(payload) != check {
        return None;
    }

    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let objective = c.f64()?;
    let quality = AllocQuality {
        stage: c.u8()?,
        proven_optimal: match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
        gap: c.f64()?,
        spills: usize::try_from(c.u64()?).ok()?,
    };

    let placements = |c: &mut Cursor| -> Option<HashMap<(PointId, Temp), IlpBank>> {
        let n = c.len(9)?;
        let mut m = HashMap::with_capacity(n);
        for _ in 0..n {
            let p = PointId(c.u32()?);
            let t = Temp(c.u32()?);
            m.insert((p, t), c.bank()?);
        }
        Some(m)
    };
    let before = placements(&mut c)?;
    let after = placements(&mut c)?;

    let n_points = c.len(12)?;
    let mut moves = HashMap::with_capacity(n_points);
    for _ in 0..n_points {
        let p = PointId(c.u32()?);
        let n = c.len(6)?;
        let mut ms = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Temp(c.u32()?);
            let from = c.bank()?;
            let to = c.bank()?;
            ms.push((t, from, to));
        }
        moves.insert(p, ms);
    }

    let n_colors = c.len(6)?;
    let mut colors = HashMap::with_capacity(n_colors);
    for _ in 0..n_colors {
        let t = Temp(c.u32()?);
        let b = c.bank()?;
        colors.insert((t, b), c.u8()?);
    }

    let n_moves = usize::try_from(c.u64()?).ok()?;
    let n_spills = usize::try_from(c.u64()?).ok()?;
    if c.at != payload.len() {
        return None; // trailing garbage
    }
    Some(DiskEntry {
        objective,
        quality,
        asg: Assignment {
            before,
            after,
            moves,
            colors,
            n_moves,
            n_spills,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> DiskEntry {
        let mut before = HashMap::new();
        before.insert((PointId(0), Temp(3)), IlpBank::A);
        before.insert((PointId(4), Temp(1)), IlpBank::Sd);
        let mut after = HashMap::new();
        after.insert((PointId(0), Temp(3)), IlpBank::B);
        let mut moves = HashMap::new();
        moves.insert(PointId(0), vec![(Temp(3), IlpBank::A, IlpBank::B)]);
        let mut colors = HashMap::new();
        colors.insert((Temp(3), IlpBank::S), 2u8);
        DiskEntry {
            objective: 7.25,
            quality: AllocQuality {
                stage: 0,
                proven_optimal: true,
                gap: 0.0,
                spills: 0,
            },
            asg: Assignment {
                before,
                after,
                moves,
                colors,
                n_moves: 1,
                n_spills: 0,
            },
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let e = entry();
        let d = decode(&encode(&e)).expect("own encoding decodes");
        assert_eq!(d.objective.to_bits(), e.objective.to_bits());
        assert_eq!(d.quality, e.quality);
        assert_eq!(d.asg, e.asg);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&entry()), encode(&entry()));
    }

    #[test]
    fn every_truncation_is_a_clean_reject() {
        let bytes = encode(&entry());
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_none(), "truncation at {n} decoded");
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_clean_reject() {
        let bytes = encode(&entry());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[i] ^= 1 << bit;
                assert!(decode(&c).is_none(), "flip at byte {i} bit {bit} decoded");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_a_reject() {
        let mut bytes = encode(&entry());
        bytes.push(0);
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn payload_ends_at_n_spills() {
        // The payload's last field is `n_spills`; anything after it —
        // here the empty `values` block version 1 appended — rejects even
        // under a header whose length and checksum cover it.
        let mut e = entry();
        e.asg.n_spills = 0x0123_4567;
        let mut payload = encode_payload(&e);
        assert_eq!(payload[payload.len() - 8..], 0x0123_4567u64.to_le_bytes());
        assert!(decode(&frame(&payload)).is_some());
        payload.push(0);
        assert!(decode(&frame(&payload)).is_none());
    }
}
