//! The CRC-tailed envelope of the checkpoint and WAL manifests
//! ([`crate::ckpt::manifest`], [`crate::wal::manifest`]):
//! `magic [u8; 4] | version u16 | body | crc32 u32 over everything above`,
//! with `[u16 len][utf8]` names and `[u32 count]`-prefixed lists inside
//! the body. Every decode failure is a typed [`FsError::Corrupt`].

use fanstore_compress::crc32::crc32;

use crate::FsError;

/// Start an envelope: `magic | version`.
pub(crate) fn begin(magic: [u8; 4], version: u16) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Append a `[u16 len][utf8]` name.
pub(crate) fn put_name(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Close an envelope: append the CRC32 of everything before it.
pub(crate) fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A cursor over a CRC-verified envelope body; `what` prefixes errors.
pub(crate) struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Verify `buf`'s trailing CRC, magic and version; the cursor starts
    /// after the version.
    pub(crate) fn open(
        buf: &'a [u8],
        magic: [u8; 4],
        ver: u16,
        what: &'static str,
    ) -> Result<Self, FsError> {
        let mut r = Reader { body: buf, pos: 0, what };
        let (body, tail) =
            buf.split_at(buf.len().checked_sub(4).ok_or_else(|| r.corrupt("truncated"))?);
        let (expect, actual) = (u32::from_le_bytes(tail.try_into().expect("4 bytes")), crc32(body));
        if expect != actual {
            return Err(
                r.corrupt(&format!("CRC mismatch: stored {expect:08x}, computed {actual:08x}"))
            );
        }
        r.body = body;
        if r.take()? != magic {
            return Err(r.corrupt("bad magic"));
        }
        match u16::from_le_bytes(r.take()?) {
            v if v == ver => Ok(r),
            v => Err(r.corrupt(&format!("unsupported version {v}"))),
        }
    }

    fn corrupt(&self, msg: &str) -> FsError {
        FsError::Corrupt(format!("{}: {msg}", self.what))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FsError> {
        let got = self.body.get(self.pos..self.pos + n).ok_or_else(|| self.corrupt("truncated"))?;
        self.pos += n;
        Ok(got)
    }

    /// The next `N` bytes, e.g. for `u64::from_le_bytes`.
    pub(crate) fn take<const N: usize>(&mut self) -> Result<[u8; N], FsError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// The next `[u16 len][utf8]` name.
    pub(crate) fn name(&mut self) -> Result<String, FsError> {
        let len = u16::from_le_bytes(self.take()?);
        let raw = self.bytes(usize::from(len))?;
        std::str::from_utf8(raw).map(str::to_string).map_err(|_| self.corrupt("name not utf-8"))
    }

    /// The next `[u32 count]`-prefixed list; the untrusted count reserves
    /// at most 4096 slots up front.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, FsError>,
    ) -> Result<Vec<T>, FsError> {
        let count = u32::from_le_bytes(self.take()?) as usize;
        let mut out = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// End of the envelope: any unread body byte is an error.
    pub(crate) fn finish(self) -> Result<(), FsError> {
        (self.pos == self.body.len()).then_some(()).ok_or_else(|| self.corrupt("trailing bytes"))
    }
}
