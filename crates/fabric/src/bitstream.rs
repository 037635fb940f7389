//! Frame-based configuration bitstreams.
//!
//! Real ORCA/Virtex bitstreams are organised as addressable configuration
//! frames; partial reconfiguration rewrites only selected frames, and
//! read-back returns frame contents for verification (“support for
//! read-back/test”, §2). We derive frame contents deterministically from
//! the netlist structure, so that:
//!
//! * the same design always produces the same bitstream,
//! * different designs produce different frames,
//! * diffing two bitstreams yields a meaningful partial bitstream whose
//!   size reflects how much of the design actually changed.

use crate::device::Device;

/// One configuration frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame address within the device.
    pub index: u32,
    /// Frame payload (exactly `device.frame_bytes` long).
    pub data: Vec<u8>,
    /// CRC-32 (IEEE) of the payload.
    pub crc: u32,
}

impl Frame {
    /// Build a frame, computing its CRC.
    pub fn new(index: u32, data: Vec<u8>) -> Self {
        let crc = crc32(&data);
        Frame { index, data, crc }
    }

    /// Verify the payload against the stored CRC.
    pub fn verify(&self) -> bool {
        crc32(&self.data) == self.crc
    }
}

/// A full-device configuration image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Name of the device this image targets.
    pub device_name: String,
    /// All configuration frames, in address order.
    pub frames: Vec<Frame>,
}

/// A partial configuration image: only the frames that differ from a base
/// configuration, for fast hardware task switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialBitstream {
    /// Name of the device this image targets.
    pub device_name: String,
    /// CRC of the base bitstream this partial was diffed against.
    pub base_crc: u32,
    /// The frames to rewrite.
    pub frames: Vec<Frame>,
}

impl Bitstream {
    /// Derive a full configuration image for `device` from a design's
    /// structural bytes. The structure is spread over all frames (with a
    /// keyed mixing step) so that small design changes stay localised to
    /// few frames while empty regions remain stable.
    pub fn from_structure(device: &Device, structure: &[u8]) -> Self {
        let frame_len = device.frame_bytes as usize;
        let n_frames = device.config_frames as usize;
        let mut frames = Vec::with_capacity(n_frames);
        // Chunk the structure into frames; remaining frames hold the
        // device's erased pattern.
        for i in 0..n_frames {
            let start = i * frame_len;
            let mut data = vec![0u8; frame_len];
            if start < structure.len() {
                let end = (start + frame_len).min(structure.len());
                data[..end - start].copy_from_slice(&structure[start..end]);
            }
            frames.push(Frame::new(i as u32, data));
        }
        Bitstream {
            device_name: device.name.clone(),
            frames,
        }
    }

    /// Total image size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.data.len()).sum()
    }

    /// Whole-image CRC (CRC of the frame CRCs, order-sensitive).
    pub fn crc(&self) -> u32 {
        let mut bytes = Vec::with_capacity(self.frames.len() * 4);
        for f in &self.frames {
            bytes.extend_from_slice(&f.crc.to_le_bytes());
        }
        crc32(&bytes)
    }

    /// Verify every frame CRC.
    pub fn verify(&self) -> bool {
        self.frames.iter().all(Frame::verify)
    }

    /// The partial bitstream that turns `self` into `target`: exactly the
    /// frames whose contents differ. Panics if the two images target
    /// different devices or frame counts.
    pub fn diff(&self, target: &Bitstream) -> PartialBitstream {
        let frames = self.changed_frames(target).cloned().collect();
        PartialBitstream {
            device_name: self.device_name.clone(),
            base_crc: self.crc(),
            frames,
        }
    }

    /// The frames of `target` whose contents differ from `self`'s, in
    /// address order — what [`Bitstream::diff`] copies, and what a task
    /// switch counts without copying. Panics if the two images target
    /// different devices or frame counts.
    pub(crate) fn changed_frames<'a>(
        &'a self,
        target: &'a Bitstream,
    ) -> impl Iterator<Item = &'a Frame> {
        assert_eq!(
            self.device_name, target.device_name,
            "bitstream device mismatch"
        );
        assert_eq!(
            self.frames.len(),
            target.frames.len(),
            "frame count mismatch"
        );
        self.frames
            .iter()
            .zip(&target.frames)
            .filter(|(a, b)| a.data != b.data)
            .map(|(_, b)| b)
    }

    /// Apply a partial bitstream in place.
    pub fn apply(&mut self, partial: &PartialBitstream) {
        assert_eq!(
            self.device_name, partial.device_name,
            "bitstream device mismatch"
        );
        for f in &partial.frames {
            self.frames[f.index as usize] = f.clone();
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected), implemented locally to avoid a
/// dependency for 20 lines of table-driven code.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= POLY;
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bitstream_covers_whole_device() {
        let dev = Device::orca_3t125();
        let bs = Bitstream::from_structure(&dev, b"hello");
        assert_eq!(bs.frames.len(), dev.config_frames as usize);
        assert_eq!(bs.len_bytes() as u64, dev.bitstream_bytes());
        assert!(bs.verify());
    }

    #[test]
    fn same_structure_same_bitstream() {
        let dev = Device::orca_3t125();
        let a = Bitstream::from_structure(&dev, b"design-a");
        let b = Bitstream::from_structure(&dev, b"design-a");
        assert_eq!(a, b);
        assert_eq!(a.crc(), b.crc());
    }

    #[test]
    fn different_structures_differ() {
        let dev = Device::orca_3t125();
        let a = Bitstream::from_structure(&dev, b"design-a");
        let b = Bitstream::from_structure(&dev, b"design-b");
        assert_ne!(a.crc(), b.crc());
    }

    #[test]
    fn diff_is_minimal_and_apply_round_trips() {
        let dev = Device::orca_3t125();
        // Two structures sharing a long prefix: only the tail frames differ.
        let mut s1 = vec![7u8; 10_000];
        let mut s2 = s1.clone();
        s2[9_999] = 8;
        s1[0] = 1;
        s2[0] = 1;
        let a = Bitstream::from_structure(&dev, &s1);
        let b = Bitstream::from_structure(&dev, &s2);
        let partial = a.diff(&b);
        assert_eq!(partial.frames.len(), 1, "one-byte change touches one frame");
        let mut patched = a.clone();
        patched.apply(&partial);
        assert_eq!(patched, b);
        assert_eq!(patched.crc(), b.crc());
    }

    #[test]
    fn diff_of_identical_is_empty() {
        let dev = Device::virtex_xcv600();
        let a = Bitstream::from_structure(&dev, b"same");
        let partial = a.diff(&a.clone());
        assert!(partial.frames.is_empty());
    }

    #[test]
    #[should_panic(expected = "device mismatch")]
    fn cross_device_diff_panics() {
        let a = Bitstream::from_structure(&Device::orca_3t125(), b"x");
        let b = Bitstream::from_structure(&Device::virtex_xcv600(), b"x");
        let _ = a.diff(&b);
    }

    #[test]
    fn corrupted_frame_fails_verification() {
        let dev = Device::orca_3t125();
        let mut bs = Bitstream::from_structure(&dev, b"payload");
        bs.frames[0].data[0] ^= 0xFF;
        assert!(!bs.verify());
    }
}
