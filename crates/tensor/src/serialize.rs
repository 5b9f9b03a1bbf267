//! Parameter persistence: a minimal, dependency-free binary format for
//! saving and restoring a [`ParamStore`](crate::ParamStore)'s values,
//! hardened against torn writes and bit corruption (`docs/ROBUSTNESS.md`).
//!
//! Format (little-endian):
//!
//! ```text
//! payload:
//!   magic  "LCR1"            4 bytes
//!   count  u32               number of parameters
//!   per parameter:
//!     name_len u32, name bytes (UTF-8)
//!     ndim u32, dims u32 × ndim
//!     data f32 × numel
//! trailer:
//!   payload_len u64          length of everything before the trailer
//!   checksum    u64          FNV-1a 64 over the payload
//! ```
//!
//! The trailer makes interrupted writes detectable: a torn write fails the
//! length check, a bit flip fails the checksum, and both surface as typed
//! [`std::io::Error`]s instead of garbage tensors. [`load_params`]
//! additionally stages the entire checkpoint before touching the store, so
//! a corrupt stream can never leave a `ParamStore` half-restored.
//!
//! Loading restores values **by name** into an architecture-compatible
//! store (the model must be rebuilt with the same configuration first);
//! [`save_params`]/[`load_params`] persist values only, matching common
//! practice for inference-oriented checkpoints, while
//! [`save_train_state`]/[`load_train_state`] additionally carry AdamW
//! moments and an opaque resume blob for mid-epoch train/resume.
//!
//! [`load_params`]: crate::serialize::load_params
//! [`save_params`]: crate::serialize::save_params
//! [`save_train_state`]: crate::serialize::save_train_state
//! [`load_train_state`]: crate::serialize::load_train_state

use crate::optim::{AdamW, ParamId, ParamStore};
use crate::tensor::Tensor;
use lcrec_fault::{fnv1a64, fnv1a64_extend, seams, Backoff, FaultPlan, FNV1A64_BASIS};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"LCR1";
const TRAIN_MAGIC: &[u8; 4] = b"LCRT";
const TRAILER_LEN: usize = 16;

/// Chunk size for the streamed file paths ([`save_params_file`],
/// [`load_params_file`]): large enough to amortize syscalls, small enough
/// that in-flight buffers stay off any memory high-water mark.
const CHUNK: usize = 64 * 1024;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Appends the length + checksum trailer to a payload.
fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let len = payload.len() as u64;
    let sum = fnv1a64(&payload);
    payload.extend_from_slice(&len.to_le_bytes());
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// Verifies the trailer and returns the payload slice.
fn unseal(buf: &[u8]) -> io::Result<&[u8]> {
    if buf.len() < TRAILER_LEN {
        return Err(bad("truncated checkpoint (torn write?)"));
    }
    let (payload, trailer) = buf.split_at(buf.len() - TRAILER_LEN);
    let mut b = [0u8; 8];
    b.copy_from_slice(&trailer[..8]);
    let len = u64::from_le_bytes(b);
    b.copy_from_slice(&trailer[8..]);
    let sum = u64::from_le_bytes(b);
    if len != payload.len() as u64 {
        return Err(bad(format!(
            "truncated checkpoint (torn write?): trailer says {len} payload bytes, found {}",
            payload.len()
        )));
    }
    if sum != fnv1a64(payload) {
        return Err(bad("checkpoint checksum mismatch (corrupted bytes)"));
    }
    Ok(payload)
}

/// Bounds-checked reader over a checkpoint payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(bad("truncated checkpoint payload"));
        }
        let s = &self.buf[self.pos..self.pos + n]; // lint: allow(panic, reason = "guarded: the truncation check above ensures pos + n <= buf.len()")
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad(format!("{} trailing bytes after checkpoint data", self.remaining())));
        }
        Ok(())
    }
}

fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.ndim() as u32).to_le_bytes());
    for &d in t.shape() {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &x in t.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn read_tensor(cur: &mut Cursor<'_>) -> io::Result<Tensor> {
    let ndim = cur.u32()? as usize;
    if ndim > 8 {
        return Err(bad("unreasonable rank"));
    }
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(cur.u32()? as usize);
    }
    let numel = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| bad("tensor element count overflows"))?;
    if numel > cur.remaining() / 4 {
        return Err(bad("truncated checkpoint payload: tensor data cut short"));
    }
    let bytes = cur.take(numel * 4)?;
    let mut data = Vec::with_capacity(numel);
    for c in bytes.chunks_exact(4) {
        data.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
    Ok(Tensor::new(&shape, data))
}

/// Serializes the payload section (magic + named tensors) of `store`.
fn params_payload(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        write_tensor(&mut out, store.value(id));
    }
    out
}

/// Parses and validates every parameter in `payload` against `store`
/// **without mutating it** — the staged list is only committed by the
/// caller once the whole stream has been proven well-formed.
fn parse_params(payload: &[u8], store: &ParamStore) -> io::Result<Vec<(ParamId, Tensor)>> {
    let mut cur = Cursor::new(payload);
    if cur.take(4)? != MAGIC {
        return Err(bad("bad magic (not an LCR1 checkpoint)"));
    }
    let count = cur.u32()? as usize;
    let ids: std::collections::HashMap<String, ParamId> =
        store.ids().map(|id| (store.name(id).to_string(), id)).collect();
    let mut staged = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        if name_len > 1 << 20 {
            return Err(bad("unreasonable name length"));
        }
        let name = String::from_utf8(cur.take(name_len)?.to_vec()).map_err(|e| bad(e.to_string()))?;
        let tensor = read_tensor(&mut cur)?;
        let id = *ids
            .get(&name)
            .ok_or_else(|| bad(format!("unknown parameter {name:?}")))?;
        if store.value(id).shape() != tensor.shape() {
            return Err(bad(format!(
                "shape mismatch for {name:?}: checkpoint {:?} vs model {:?}",
                tensor.shape(),
                store.value(id).shape()
            )));
        }
        staged.push((id, tensor));
    }
    cur.finish()?;
    Ok(staged)
}

/// Serializes all parameter values of `store` into `w`, including the
/// crash-detection trailer.
pub fn save_params(store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
    w.write_all(&seal(params_payload(store)))
}

/// Restores parameter values into `store` by name.
///
/// The entire stream is parsed and validated (trailer, magic, names,
/// shapes) before the first tensor is written back, so on **any** error
/// the store is bit-for-bit untouched.
///
/// # Errors
/// Fails on a truncated stream or checksum mismatch (torn write / bit
/// corruption), a bad magic, a name absent from `store`, or a shape
/// mismatch. Parameters present in `store` but missing from the stream
/// are left untouched (and reported in the returned count).
pub fn load_params(store: &mut ParamStore, r: &mut impl Read) -> io::Result<usize> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let staged = parse_params(unseal(&buf)?, store)?;
    let restored = staged.len();
    for (id, tensor) in staged {
        *store.value_mut(id) = tensor;
    }
    Ok(restored)
}

/// Exact byte length of the sealed checkpoint [`save_params`] would
/// produce for `store` — computable without building it, which is what
/// lets the streamed writer publish a torn-write-compatible length up
/// front and the caller budget disk space.
pub fn params_sealed_len(store: &ParamStore) -> u64 {
    let mut n = (MAGIC.len() + 4) as u64;
    for id in store.ids() {
        let t = store.value(id);
        n += 4 + store.name(id).len() as u64;
        n += 4 + 4 * t.ndim() as u64 + 4 * t.data().len() as u64;
    }
    n + TRAILER_LEN as u64
}

/// A writer that maintains the running payload FNV and byte position
/// while streaming, and silently drops everything past `limit` — the
/// seam through which torn writes are injected into the streamed path
/// with the exact semantics of the whole-buffer path (a strict prefix
/// of the sealed bytes reaches disk).
struct HashingWriter<W: Write> {
    inner: W,
    fnv: u64,
    hashed: u64,
    pos: u64,
    limit: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W, limit: u64) -> Self {
        HashingWriter { inner, fnv: FNV1A64_BASIS, hashed: 0, pos: 0, limit }
    }

    /// Writes payload bytes: hashed into the trailer checksum.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fnv = fnv1a64_extend(self.fnv, bytes);
        self.hashed += bytes.len() as u64;
        self.put_raw(bytes)
    }

    /// Writes trailer bytes: counted against the torn-write limit but
    /// excluded from the payload checksum (the trailer seals the
    /// payload, it does not checksum itself).
    fn put_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let room = self.limit.saturating_sub(self.pos).min(bytes.len() as u64) as usize;
        if let Some(head) = bytes.get(..room) {
            self.inner.write_all(head)?;
        }
        self.pos += bytes.len() as u64;
        Ok(())
    }
}

/// [`save_params`] to a file, crash-safely: bytes land in a `.tmp`
/// sibling first and only an atomic rename publishes them, so `path`
/// always holds either the previous checkpoint or the complete new one —
/// never a torn intermediate. The payload streams to the `.tmp` file in
/// ≤ `CHUNK`-byte pieces with an incrementally-computed trailer, so peak
/// in-flight memory is O(one chunk) instead of O(whole checkpoint) — the
/// difference between a few hundred MB and 64 KiB at the large LM tier.
/// The bytes published are **bit-identical** to [`save_params`]'s (pinned
/// in `tests/scale.rs`). Uses the ambient [`lcrec_fault::env_plan`] and
/// default [`Backoff`].
pub fn save_params_file(store: &ParamStore, path: &Path) -> io::Result<()> {
    save_params_file_with(store, path, lcrec_fault::env_plan(), &Backoff::default())
}

/// [`save_params_file`] under an explicit fault plan and retry policy
/// (the chaos suite injects torn writes here, through the `ckpt.write`
/// seam).
pub fn save_params_file_with(
    store: &ParamStore,
    path: &Path,
    plan: &FaultPlan,
    backoff: &Backoff,
) -> io::Result<()> {
    let total = params_sealed_len(store);
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let mut scratch: Vec<u8> = Vec::with_capacity(CHUNK);
    for _ in 0..backoff.max_attempts() {
        // Decide the torn-write limit up front — the sealed length is known
        // arithmetically, so streaming changes nothing about the fault seam.
        let torn = plan.should_fail(seams::CKPT_WRITE);
        let limit = if torn { plan.torn_len(seams::CKPT_WRITE, total as usize) as u64 } else { total };
        let file = std::fs::File::create(&tmp)?;
        let mut w = HashingWriter::new(io::BufWriter::new(file), limit);
        w.put(MAGIC)?;
        w.put(&(store.len() as u32).to_le_bytes())?;
        for id in store.ids() {
            let name = store.name(id).as_bytes();
            w.put(&(name.len() as u32).to_le_bytes())?;
            w.put(name)?;
            let t = store.value(id);
            w.put(&(t.ndim() as u32).to_le_bytes())?;
            for &d in t.shape() {
                w.put(&(d as u32).to_le_bytes())?;
            }
            for block in t.data().chunks(CHUNK / 4) {
                scratch.clear();
                for &x in block {
                    scratch.extend_from_slice(&x.to_le_bytes());
                }
                w.put(&scratch)?;
            }
        }
        let (payload_len, sum) = (w.hashed, w.fnv);
        w.put_raw(&payload_len.to_le_bytes())?;
        w.put_raw(&sum.to_le_bytes())?;
        w.inner.flush()?;
        if torn {
            // Simulated torn write: only a prefix reached the temp file
            // before the "crash". The published path is never touched, and
            // the next attempt rewrites the temp file from scratch.
            lcrec_obs::counter_add("ckpt.retries", 1);
            continue;
        }
        std::fs::rename(&tmp, path)?;
        return Ok(());
    }
    let _ = std::fs::remove_file(&tmp);
    Err(io::Error::other("checkpoint write retries exhausted (injected faults)"))
}

/// Bounds- and budget-checked sequential reader over the payload region
/// of a checkpoint file (everything before the trailer).
struct PayloadReader<'a, R: Read> {
    r: &'a mut R,
    pos: u64,
    payload_len: u64,
}

impl<R: Read> PayloadReader<'_, R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if buf.len() as u64 > self.payload_len - self.pos {
            return Err(bad("truncated checkpoint payload"));
        }
        self.r.read_exact(buf)?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn remaining(&self) -> u64 {
        self.payload_len - self.pos
    }

    /// Streams `n` bytes through a fresh per-region FNV without retaining
    /// them; `chunk` is the caller's reusable ≤ `CHUNK`-byte buffer.
    fn hash_region(&mut self, n: u64, chunk: &mut Vec<u8>) -> io::Result<u64> {
        let mut fnv = FNV1A64_BASIS;
        let mut left = n;
        while left > 0 {
            let take = left.min(CHUNK as u64) as usize;
            chunk.resize(take, 0);
            self.read_exact(chunk)?;
            fnv = fnv1a64_extend(fnv, chunk);
            left -= take as u64;
        }
        Ok(fnv)
    }
}

/// [`load_params`] with **memory-bounded streaming**: restores a
/// checkpoint file written by [`save_params_file`] (or any sealed
/// [`save_params`] bytes on disk) while holding O(largest tensor) in
/// flight instead of O(whole checkpoint).
///
/// Three sequential passes over the file replace the in-memory staging
/// of [`load_params`] without weakening its contract against *on-disk*
/// corruption:
///
/// 1. **Checksum** — the payload is streamed in `CHUNK`-byte pieces
///    through an incremental FNV and checked against the trailer, after
///    the trailer's length field is checked against the file length.
/// 2. **Structure** — the payload is stream-parsed (magic, names, shapes
///    validated against `store`) recording each tensor's file offset and
///    a per-tensor FNV; no tensor data is materialized.
/// 3. **Commit** — each tensor's bytes are re-read into a buffer sized
///    to that tensor, re-verified against its pass-2 FNV, and only then
///    written into `store`.
///
/// Any torn write, bit flip, or structural corruption is rejected in
/// pass 1 or 2 with a typed [`io::ErrorKind::InvalidData`] error and the
/// store bit-for-bit untouched. The per-tensor re-verification in pass 3
/// exists because the file is read twice: if the file is *mutated
/// between passes* (an external writer mid-load), the mismatch aborts
/// the load — tensors already committed in that pathological case have
/// still each individually passed validation, but the restore is
/// incomplete and the error must not be swallowed.
///
/// # Examples
///
/// ```
/// use lcrec_tensor::{init, ParamStore};
/// use lcrec_tensor::serialize::{load_params_file, save_params_file};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut src = ParamStore::new();
/// src.add("w", init::normal(&[8, 4], 1.0, &mut rng));
/// let path = std::env::temp_dir().join("lcrec-doc-chunked.lcr");
/// save_params_file(&src, &path).expect("save");
///
/// let mut dst = ParamStore::new();
/// dst.add("w", init::normal(&[8, 4], 1.0, &mut rng)); // same shape, fresh values
/// let restored = load_params_file(&mut dst, &path).expect("load");
/// assert_eq!(restored, 1);
/// assert_eq!(src.value(src.ids().next().unwrap()), dst.value(dst.ids().next().unwrap()));
/// # std::fs::remove_file(&path).ok();
/// ```
pub fn load_params_file(store: &mut ParamStore, path: &Path) -> io::Result<usize> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < TRAILER_LEN as u64 {
        return Err(bad("truncated checkpoint (torn write?)"));
    }
    let mut r = io::BufReader::new(file);

    // Trailer: stated payload length + checksum.
    r.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    let mut trailer = [0u8; TRAILER_LEN];
    r.read_exact(&mut trailer)?;
    let (len_b, sum_b) = trailer.split_at(8);
    let mut b = [0u8; 8];
    b.copy_from_slice(len_b);
    let stated_len = u64::from_le_bytes(b);
    b.copy_from_slice(sum_b);
    let checksum = u64::from_le_bytes(b);
    let payload_len = file_len - TRAILER_LEN as u64;
    if stated_len != payload_len {
        return Err(bad(format!(
            "truncated checkpoint (torn write?): trailer says {stated_len} payload bytes, found {payload_len}"
        )));
    }

    // Pass 1: whole-payload checksum, one chunk at a time.
    r.seek(SeekFrom::Start(0))?;
    let mut chunk: Vec<u8> = Vec::with_capacity(CHUNK);
    {
        let mut pr = PayloadReader { r: &mut r, pos: 0, payload_len };
        let mut fnv = FNV1A64_BASIS;
        while pr.remaining() > 0 {
            let take = pr.remaining().min(CHUNK as u64) as usize;
            chunk.resize(take, 0);
            pr.read_exact(&mut chunk)?;
            fnv = fnv1a64_extend(fnv, &chunk);
        }
        if fnv != checksum {
            return Err(bad("checkpoint checksum mismatch (corrupted bytes)"));
        }
    }

    // Pass 2: structural parse against `store`, recording per-tensor
    // (id, file offset, element count, region FNV) — no data retained.
    r.seek(SeekFrom::Start(0))?;
    let mut pr = PayloadReader { r: &mut r, pos: 0, payload_len };
    let mut magic = [0u8; 4];
    pr.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic (not an LCR1 checkpoint)"));
    }
    let count = pr.u32()? as usize;
    let ids: std::collections::HashMap<String, ParamId> =
        store.ids().map(|id| (store.name(id).to_string(), id)).collect();
    let mut staged: Vec<(ParamId, u64, usize, u64)> = Vec::new();
    for _ in 0..count {
        let name_len = pr.u32()? as usize;
        if name_len > 1 << 20 {
            return Err(bad("unreasonable name length"));
        }
        let mut name_buf = vec![0u8; name_len];
        pr.read_exact(&mut name_buf)?;
        let name = String::from_utf8(name_buf).map_err(|e| bad(e.to_string()))?;
        let ndim = pr.u32()? as usize;
        if ndim > 8 {
            return Err(bad("unreasonable rank"));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(pr.u32()? as usize);
        }
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| bad("tensor element count overflows"))?;
        if numel as u64 > pr.remaining() / 4 {
            return Err(bad("truncated checkpoint payload: tensor data cut short"));
        }
        let id = *ids.get(&name).ok_or_else(|| bad(format!("unknown parameter {name:?}")))?;
        if store.value(id).shape() != shape.as_slice() {
            return Err(bad(format!(
                "shape mismatch for {name:?}: checkpoint {shape:?} vs model {:?}",
                store.value(id).shape()
            )));
        }
        let offset = pr.pos;
        let region_fnv = pr.hash_region(numel as u64 * 4, &mut chunk)?;
        staged.push((id, offset, numel, region_fnv));
    }
    if pr.remaining() > 0 {
        return Err(bad(format!("{} trailing bytes after checkpoint data", pr.remaining())));
    }

    // Pass 3: commit, one tensor at a time, re-verified before touching
    // the store's copy.
    let restored = staged.len();
    let mut buf: Vec<u8> = Vec::new();
    for (id, offset, numel, region_fnv) in staged {
        buf.resize(numel * 4, 0);
        r.seek(SeekFrom::Start(offset))?;
        r.read_exact(&mut buf)?;
        if fnv1a64(&buf) != region_fnv {
            return Err(bad(format!(
                "checkpoint changed on disk while loading parameter {:?}",
                store.name(id)
            )));
        }
        let dst = store.value_mut(id).data_mut();
        for (slot, c) in dst.iter_mut().zip(buf.chunks_exact(4)) {
            let mut fb = [0u8; 4];
            fb.copy_from_slice(c);
            *slot = f32::from_le_bytes(fb);
        }
    }
    Ok(restored)
}

/// Serializes a full training snapshot — parameter values, AdamW step and
/// moment buffers, and an opaque `extra` blob for loop-specific resume
/// state (epoch, batch cursor, RNG state…) — into `w`, sealed with the
/// same length + checksum trailer as [`save_params`].
pub fn save_train_state(
    store: &ParamStore,
    opt: &AdamW,
    extra: &[u8],
    w: &mut impl Write,
) -> io::Result<()> {
    let mut p = Vec::new();
    p.extend_from_slice(TRAIN_MAGIC);
    let params = seal(params_payload(store));
    p.extend_from_slice(&(params.len() as u64).to_le_bytes());
    p.extend_from_slice(&params);
    let (step, m, v) = opt.moments();
    p.extend_from_slice(&(step as u64).to_le_bytes());
    p.extend_from_slice(&(m.len() as u32).to_le_bytes());
    for t in m.iter().chain(v.iter()) {
        write_tensor(&mut p, t);
    }
    p.extend_from_slice(&(extra.len() as u64).to_le_bytes());
    p.extend_from_slice(extra);
    w.write_all(&seal(p))
}

/// Restores a training snapshot written by [`save_train_state`] and
/// returns the opaque `extra` blob. Like [`load_params`], everything is
/// staged and validated first: on any error neither `store` nor `opt` is
/// touched.
pub fn load_train_state(
    store: &mut ParamStore,
    opt: &mut AdamW,
    r: &mut impl Read,
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let payload = unseal(&buf)?;
    let mut cur = Cursor::new(payload);
    if cur.take(4)? != TRAIN_MAGIC {
        return Err(bad("bad magic (not an LCRT train state)"));
    }
    let plen = cur.u64()? as usize;
    let staged = parse_params(unseal(cur.take(plen)?)?, store)?;
    let step = cur.u64()? as usize;
    let n = cur.u32()? as usize;
    if n > store.len() {
        return Err(bad(format!(
            "optimizer has {n} moment buffers but the model has {} parameters",
            store.len()
        )));
    }
    let mut m = Vec::with_capacity(n);
    for _ in 0..n {
        m.push(read_tensor(&mut cur)?);
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(read_tensor(&mut cur)?);
    }
    for (i, t) in m.iter().chain(v.iter()).enumerate() {
        let id = ParamId(i % n.max(1));
        if t.shape() != store.value(id).shape() {
            return Err(bad(format!(
                "moment shape mismatch for {:?}: checkpoint {:?} vs model {:?}",
                store.name(id),
                t.shape(),
                store.value(id).shape()
            )));
        }
    }
    let extra_len = cur.u64()? as usize;
    let extra = cur.take(extra_len)?.to_vec();
    cur.finish()?;
    for (id, tensor) in staged {
        *store.value_mut(id) = tensor;
    }
    opt.restore(step, m, v);
    Ok(extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        ps.add("w1", init::normal(&[4, 6], 1.0, &mut rng));
        ps.add_no_decay("b1", init::normal(&[6], 1.0, &mut rng));
        ps.add("emb", init::normal(&[10, 4], 1.0, &mut rng));
        ps
    }

    fn store_bits(ps: &ParamStore) -> Vec<u32> {
        ps.ids().flat_map(|id| ps.value(id).data().iter().map(|x| x.to_bits())).collect()
    }

    #[test]
    fn save_load_round_trip() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).expect("save");
        let mut dst = sample_store(2); // different values, same shapes
        let restored = load_params(&mut dst, &mut buf.as_slice()).expect("load");
        assert_eq!(restored, 3);
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut dst = sample_store(1);
        let err = load_params(&mut dst, &mut b"NOPE....".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).expect("save");
        let mut rng = StdRng::seed_from_u64(3);
        let mut dst = ParamStore::new();
        dst.add("w1", init::normal(&[4, 5], 1.0, &mut rng)); // wrong shape
        dst.add("b1", init::normal(&[6], 1.0, &mut rng));
        dst.add("emb", init::normal(&[10, 4], 1.0, &mut rng));
        let err = load_params(&mut dst, &mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn rejects_unknown_parameter() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).expect("save");
        let mut rng = StdRng::seed_from_u64(3);
        let mut dst = ParamStore::new();
        dst.add("other", init::normal(&[4, 6], 1.0, &mut rng));
        assert!(load_params(&mut dst, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let src = sample_store(1);
        let mut buf = Vec::new();
        save_params(&src, &mut buf).expect("save");
        buf.truncate(buf.len() / 2);
        let mut dst = sample_store(2);
        assert!(load_params(&mut dst, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn corruption_never_mutates_the_store() {
        let src = sample_store(1);
        let mut good = Vec::new();
        save_params(&src, &mut good).expect("save");
        // A flipped bit deep in the payload fails the checksum, and the
        // destination store keeps every original bit.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let mut dst = sample_store(2);
        let before = store_bits(&dst);
        let err = load_params(&mut dst, &mut flipped.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(store_bits(&dst), before, "store must stay untouched");
        // A torn write (any strict prefix) fails the length check.
        let torn = &good[..good.len() - 7];
        let err = load_params(&mut dst, &mut &torn[..]).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(store_bits(&dst), before);
    }

    #[test]
    fn atomic_save_survives_injected_torn_writes() {
        let dir = std::env::temp_dir().join(format!("lcrec-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("params.lcr");
        let src = sample_store(1);
        // A transient plan at full rate: the burst cap keeps every write
        // recoverable within the default retry budget.
        let plan = FaultPlan::transient(7).with_rate(2);
        save_params_file_with(&src, &path, &plan, &Backoff::default()).expect("atomic save");
        let bytes = std::fs::read(&path).expect("read back");
        let mut dst = sample_store(2);
        load_params(&mut dst, &mut bytes.as_slice()).expect("load");
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }
        // Chaos exhaustion: the publish path must stay untouched.
        let chaos = FaultPlan::chaos(3).with_rate(2);
        let before = std::fs::read(&path).expect("read");
        let one_try = Backoff::new(1, 1, 1);
        let mut failures = 0;
        for _ in 0..8 {
            if save_params_file_with(&src, &path, &chaos, &one_try).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "a one-attempt budget under chaos must fail sometimes");
        assert_eq!(std::fs::read(&path).expect("read"), before, "target never torn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_save_is_bit_identical_to_whole_buffer_save() {
        let src = sample_store(1);
        let mut whole = Vec::new();
        save_params(&src, &mut whole).expect("save");
        let dir = std::env::temp_dir().join(format!("lcrec-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("streamed.lcr");
        save_params_file(&src, &path).expect("streamed save");
        let streamed = std::fs::read(&path).expect("read back");
        assert_eq!(streamed, whole, "streamed writer must publish identical bytes");
        assert_eq!(params_sealed_len(&src), whole.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_load_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("lcrec-chunked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("params.lcr");
        let src = sample_store(1);
        save_params_file(&src, &path).expect("save");

        let mut dst = sample_store(2);
        let restored = load_params_file(&mut dst, &path).expect("load");
        assert_eq!(restored, 3);
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }

        // A flipped payload bit fails pass 1 with zero mutation.
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let bad_path = dir.join("flipped.lcr");
        std::fs::write(&bad_path, &bytes).expect("write");
        let mut dst2 = sample_store(2);
        let before = store_bits(&dst2);
        let err = load_params_file(&mut dst2, &bad_path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(store_bits(&dst2), before, "store must stay untouched");

        // A truncation fails the trailer length check.
        let good = std::fs::read(&path).expect("read");
        let torn_path = dir.join("torn.lcr");
        std::fs::write(&torn_path, &good[..good.len() - 5]).expect("write");
        let err = load_params_file(&mut dst2, &torn_path).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(store_bits(&dst2), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_atomic_save_survives_injected_torn_writes() {
        let dir = std::env::temp_dir().join(format!("lcrec-stream-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("params.lcr");
        let src = sample_store(1);
        let plan = FaultPlan::transient(7).with_rate(2);
        save_params_file_with(&src, &path, &plan, &Backoff::default()).expect("streamed save");
        let mut dst = sample_store(2);
        load_params_file(&mut dst, &path).expect("load");
        for (a, b) in src.ids().zip(dst.ids()) {
            assert_eq!(src.value(a), dst.value(b));
        }
        // Chaos exhaustion: the published path must stay untouched.
        let chaos = FaultPlan::chaos(3).with_rate(2);
        let before = std::fs::read(&path).expect("read");
        let one_try = Backoff::new(1, 1, 1);
        let mut failures = 0;
        for _ in 0..8 {
            if save_params_file_with(&src, &path, &chaos, &one_try).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "a one-attempt budget under chaos must fail sometimes");
        assert_eq!(std::fs::read(&path).expect("read"), before, "target never torn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_state_round_trip_restores_optimizer() {
        let mut store = sample_store(1);
        let mut opt = AdamW::new(0.01);
        // A few steps so moments and the schedule are non-trivial.
        for _ in 0..3 {
            for id in store.ids() {
                let g: Vec<f32> = store.value(id).data().iter().map(|x| x * 0.5).collect();
                store.grad_mut(id).data_mut().copy_from_slice(&g);
            }
            opt.step(&mut store);
            store.zero_grads();
        }
        let extra = b"epoch=2;batch=5".to_vec();
        let mut buf = Vec::new();
        save_train_state(&store, &opt, &extra, &mut buf).expect("save");

        let mut store2 = sample_store(9);
        let mut opt2 = AdamW::new(0.01);
        let got = load_train_state(&mut store2, &mut opt2, &mut buf.as_slice()).expect("load");
        assert_eq!(got, extra);
        assert_eq!(opt2.steps(), opt.steps());
        assert_eq!(store_bits(&store2), store_bits(&store));
        // One more identical step on both: bit-identical continuation.
        for (s, o) in [(&mut store, &mut opt), (&mut store2, &mut opt2)] {
            for id in s.ids() {
                let g: Vec<f32> = s.value(id).data().iter().map(|x| x * 0.5).collect();
                s.grad_mut(id).data_mut().copy_from_slice(&g);
            }
            o.step(s);
        }
        assert_eq!(store_bits(&store2), store_bits(&store));
        // Corrupt train state: neither store nor optimizer mutates.
        let mut bad_buf = buf.clone();
        let mid = bad_buf.len() / 3;
        bad_buf[mid] ^= 0x01;
        let mut store3 = sample_store(4);
        let mut opt3 = AdamW::new(0.01);
        let before = store_bits(&store3);
        assert!(load_train_state(&mut store3, &mut opt3, &mut bad_buf.as_slice()).is_err());
        assert_eq!(store_bits(&store3), before);
        assert_eq!(opt3.steps(), 0);
    }
}
