//! Seeded differential test of [`Memory`] against a fully backed flat
//! reference: every region allocated at its mapped size up front, every
//! range check done in 64-bit arithmetic. Random sequences of reads, writes,
//! image loads, syncs, remote stores, takes and clears must agree on every
//! value, every written or touched range, every stored L2 byte and every
//! [`MemFault`], wherever the memory's backing happens to end.

use std::collections::BTreeSet;

use snitch_asm::layout::{
    self, CLUSTER_ALIAS_BASE, CLUSTER_ALIAS_STRIDE, L2_BASE, L2_SIZE, MAIN_BASE, MAIN_SIZE,
    MAX_CLUSTERS, TCDM_BASE, TCDM_SIZE,
};
use snitch_kernels::registry::{Kernel, Variant};
use snitch_sim::config::{ClusterConfig, SystemConfig};
use snitch_sim::mem::{MemFault, Memory};
use snitch_sim::system::System;
use snitch_sim::testing::{took_rerun, Rng};

/// An empty watermark range.
const CLEAN: (usize, usize) = (usize::MAX, 0);

fn widen(range: &mut (usize, usize), lo: usize, hi: usize) {
    range.0 = range.0.min(lo);
    range.1 = range.1.max(hi);
}

/// Which flat buffer an access lands in.
#[derive(Clone, Copy)]
enum Buf {
    Tcdm,
    Main,
    L2,
    Peer(usize),
}

/// The reference: every region fully backed from the start.
struct Flat {
    tcdm: Vec<u8>,
    main: Vec<u8>,
    l2: Vec<u8>,
    /// One snapshot per system cluster once peers are enabled (the own
    /// entry unused); empty before.
    peers: Vec<Vec<u8>>,
    self_cluster: usize,
    tcdm_written: (usize, usize),
    /// L2 bytes stored through `write` since the last clear.
    l2_stored: BTreeSet<usize>,
    peers_touched: Vec<(usize, usize)>,
    /// Every span written since the last clear, which zeroes them.
    spans: Vec<(Buf, usize, usize)>,
}

impl Flat {
    fn new() -> Self {
        Flat {
            tcdm: vec![0; TCDM_SIZE as usize],
            main: vec![0; MAIN_SIZE as usize],
            l2: vec![0; L2_SIZE as usize],
            peers: Vec::new(),
            self_cluster: 0,
            tcdm_written: CLEAN,
            l2_stored: BTreeSet::new(),
            peers_touched: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn route(&self, addr: u32, len: u32) -> Result<(Buf, usize), MemFault> {
        let (lo, hi) = (u64::from(addr), u64::from(addr) + u64::from(len));
        let inside = |base: u32, size: u32| {
            let base = u64::from(base);
            (lo >= base && hi <= base + u64::from(size)).then(|| (lo - base) as usize)
        };
        if let Some(off) = inside(TCDM_BASE, TCDM_SIZE) {
            return Ok((Buf::Tcdm, off));
        }
        if let Some(off) = inside(MAIN_BASE, MAIN_SIZE) {
            return Ok((Buf::Main, off));
        }
        if let Some(off) = inside(L2_BASE, L2_SIZE) {
            return Ok((Buf::L2, off));
        }
        let alias = u64::from(CLUSTER_ALIAS_BASE);
        if lo >= alias {
            let k = ((lo - alias) / u64::from(CLUSTER_ALIAS_STRIDE)) as usize;
            let off = (lo - alias) % u64::from(CLUSTER_ALIAS_STRIDE);
            if k < MAX_CLUSTERS && off + u64::from(len) <= u64::from(TCDM_SIZE) {
                if k == self.self_cluster {
                    return Ok((Buf::Tcdm, off as usize));
                }
                if k < self.peers.len() {
                    return Ok((Buf::Peer(k), off as usize));
                }
            }
        }
        Err(MemFault { addr })
    }

    fn buf(&mut self, buf: Buf) -> &mut Vec<u8> {
        match buf {
            Buf::Tcdm => &mut self.tcdm,
            Buf::Main => &mut self.main,
            Buf::L2 => &mut self.l2,
            Buf::Peer(k) => &mut self.peers[k],
        }
    }

    fn read(&mut self, addr: u32, len: u32) -> Result<u64, MemFault> {
        let (buf, off) = self.route(addr, len)?;
        let bytes = &self.buf(buf)[off..off + len as usize];
        Ok(bytes.iter().rev().fold(0, |v, b| v << 8 | u64::from(*b)))
    }

    /// Overwrites `data` at `off` in `buf`, widening only the written
    /// watermark.
    fn put(&mut self, buf: Buf, off: usize, data: &[u8]) {
        let end = off + data.len();
        self.buf(buf)[off..end].copy_from_slice(data);
        self.spans.push((buf, off, end));
        if let Buf::Tcdm = buf {
            widen(&mut self.tcdm_written, off, end);
        }
    }

    fn write(&mut self, addr: u32, len: u32, value: u64) -> Result<(), MemFault> {
        let (buf, off) = self.route(addr, len)?;
        let end = off + len as usize;
        self.put(buf, off, &value.to_le_bytes()[..len as usize]);
        match buf {
            Buf::L2 => self.l2_stored.extend(off..end),
            Buf::Peer(k) => widen(&mut self.peers_touched[k], off, end),
            Buf::Tcdm | Buf::Main => {}
        }
        Ok(())
    }

    fn enable_peers(&mut self, clusters: usize, self_cluster: usize) {
        self.self_cluster = self_cluster;
        self.peers = vec![vec![0; TCDM_SIZE as usize]; clusters];
        self.peers_touched = vec![CLEAN; clusters];
    }

    fn clear(&mut self) {
        for (buf, lo, hi) in std::mem::take(&mut self.spans) {
            self.buf(buf)[lo..hi].fill(0);
        }
        self.tcdm_written = CLEAN;
        self.l2_stored.clear();
        self.peers_touched.fill(CLEAN);
    }

    fn tcdm_written(&self) -> Option<(usize, Vec<u8>)> {
        let (lo, hi) = self.tcdm_written;
        (lo < hi).then(|| (lo, self.tcdm[lo..hi].to_vec()))
    }

    /// The stored L2 bytes as maximal runs of `(offset, bytes)`.
    fn l2_stored(&self) -> Vec<(usize, Vec<u8>)> {
        let mut runs: Vec<(usize, Vec<u8>)> = Vec::new();
        for &off in &self.l2_stored {
            match runs.last_mut() {
                Some((lo, bytes)) if *lo + bytes.len() == off => bytes.push(self.l2[off]),
                _ => runs.push((off, vec![self.l2[off]])),
            }
        }
        runs
    }

    fn take_peer_touched(&mut self, k: usize) -> Option<(usize, Vec<u8>)> {
        let (lo, hi) = std::mem::replace(&mut self.peers_touched[k], CLEAN);
        (lo < hi).then(|| (lo, self.peers[k][lo..hi].to_vec()))
    }
}

fn owned(taken: Option<(usize, &[u8])>) -> Option<(usize, Vec<u8>)> {
    taken.map(|(off, bytes)| (off, bytes.to_vec()))
}

/// `min` plus up to `spread - 1` random bytes.
fn bytes(rng: &mut Rng, min: usize, spread: u64) -> Vec<u8> {
    let len = min + rng.below(spread) as usize;
    (0..len).map(|_| rng.next() as u8).collect()
}

/// An offset into a region of `size` bytes that often sits where a backing
/// may end: around an image end, a 4 KiB step or the region end.
fn offset(rng: &mut Rng, size: u32, image_end: u32) -> u32 {
    let jitter = rng.below(24) as u32;
    match rng.below(5) {
        0 => (image_end + jitter).saturating_sub(12),
        1 => ((1 + rng.below(8) as u32) * 4096 + jitter).saturating_sub(12),
        2 => size + jitter - 12,
        3 => rng.below(256) as u32,
        _ => rng.below(u64::from(size)) as u32,
    }
}

/// An offset into main memory or the L2. Those are large, and a store near
/// the top backs the whole region, so most offsets stay in the first
/// 64 KiB.
fn big_offset(rng: &mut Rng, size: u32, image_end: u32) -> u32 {
    let span = if rng.below(64) == 0 { size } else { 64 * 1024 };
    offset(rng, span, image_end)
}

/// A random access address: mapped, straddling a region end, in an alias
/// window (possibly of a cluster outside the system), or unmapped,
/// including the top of the address space.
fn address(rng: &mut Rng, image_end: u32) -> u32 {
    match rng.below(8) {
        0 | 1 => TCDM_BASE + offset(rng, TCDM_SIZE, image_end),
        2 => MAIN_BASE + big_offset(rng, MAIN_SIZE, image_end),
        3 => L2_BASE + big_offset(rng, L2_SIZE, image_end),
        4 | 5 => {
            let k = rng.below(6) as usize;
            let k = if rng.below(8) == 0 { MAX_CLUSTERS - 1 } else { k };
            layout::tcdm_alias_base(k) + offset(rng, TCDM_SIZE, image_end)
        }
        6 => u32::MAX - rng.below(12) as u32,
        _ => rng.next() as u32,
    }
}

fn run_sequence(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut mem = Memory::new();
    let mut flat = Flat::new();
    let mut image_end = 0u32;
    for op in 0..ops {
        let ctx = format!("seed {seed:#x}, op {op}");
        let len = [1u32, 2, 4, 8][rng.below(4) as usize];
        match rng.below(100) {
            0..=34 | 96.. => {
                let addr = address(&mut rng, image_end);
                assert_eq!(
                    mem.read(addr, len),
                    flat.read(addr, len),
                    "read {addr:#x}/{len}: {ctx}"
                );
                assert_eq!(mem.is_mapped(addr, len), flat.route(addr, len).is_ok(), "{ctx}");
            }
            35..=69 => {
                let addr = address(&mut rng, image_end);
                let value = rng.next();
                assert_eq!(
                    mem.write(addr, len, value),
                    flat.write(addr, len, value),
                    "write {addr:#x}/{len}: {ctx}"
                );
            }
            70..=73 => {
                let spread = if rng.below(4) == 0 { 20_000 } else { 600 };
                let (tcdm, main) = (bytes(&mut rng, 0, spread), bytes(&mut rng, 0, 600));
                mem.load_images(&tcdm, &main);
                flat.put(Buf::Tcdm, 0, &tcdm);
                flat.put(Buf::Main, 0, &main);
                image_end = tcdm.len() as u32;
            }
            74..=76 => {
                let image = bytes(&mut rng, 0, 3000);
                mem.load_l2(&image);
                flat.put(Buf::L2, 0, &image);
            }
            77..=79 => {
                let data = bytes(&mut rng, 1, 300);
                let off = big_offset(&mut rng, L2_SIZE, image_end).min(L2_SIZE - data.len() as u32);
                mem.sync_l2_in(off as usize, &data);
                flat.put(Buf::L2, off as usize, &data);
            }
            80..=83 if flat.peers.len() > 1 => {
                let k = (flat.self_cluster + 1 + rng.below(flat.peers.len() as u64 - 1) as usize)
                    % flat.peers.len();
                let data = bytes(&mut rng, 1, 300);
                let off = offset(&mut rng, TCDM_SIZE, image_end).min(TCDM_SIZE - data.len() as u32);
                mem.sync_peer_in(k, off as usize, &data);
                flat.put(Buf::Peer(k), off as usize, &data);
            }
            84..=86 => {
                let data = bytes(&mut rng, 1, 300);
                let off = offset(&mut rng, TCDM_SIZE, image_end).min(TCDM_SIZE - data.len() as u32);
                mem.apply_remote_tcdm(off as usize, &data);
                flat.put(Buf::Tcdm, off as usize, &data);
            }
            87..=89 => {
                let stored: Vec<_> = mem.l2_stored().map(|(off, b)| (off, b.to_vec())).collect();
                assert_eq!(stored, flat.l2_stored(), "{ctx}");
                let own = flat.self_cluster;
                for k in (0..flat.peers.len()).filter(|&k| k != own) {
                    let (got, want) = (owned(mem.take_peer_touched(k)), flat.take_peer_touched(k));
                    assert_eq!(got, want, "peer {k}: {ctx}");
                }
            }
            90..=93 => assert_eq!(owned(mem.tcdm_written()), flat.tcdm_written(), "{ctx}"),
            94 => {
                mem.clear();
                flat.clear();
                image_end = 0;
            }
            95 if flat.peers.is_empty() && op > ops / 3 => {
                let clusters = 2 + rng.below(4) as usize;
                let self_cluster = rng.below(clusters as u64) as usize;
                mem.enable_peers(clusters, self_cluster);
                flat.enable_peers(clusters, self_cluster);
            }
            _ => {}
        }
    }
    // Every byte the sequence could have reached agrees at the end.
    for addr in (TCDM_BASE..TCDM_BASE + TCDM_SIZE).step_by(8) {
        assert_eq!(mem.read(addr, 8), flat.read(addr, 8), "final tcdm {addr:#x}, seed {seed:#x}");
    }
}

#[test]
fn memory_matches_a_fully_backed_reference() {
    for seed in 1..=12u64 {
        run_sequence(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), 4000);
    }
}

/// A fresh system backs no guest memory, and a loaded one backs exactly
/// its program's images: the 8-core × 4-cluster tiled GEMM of the scaling
/// grid, whose address map spans 20 MiB per cluster.
#[test]
fn system_backing_follows_the_program_footprint() {
    let (cores, clusters) = (8, 4);
    let cluster = ClusterConfig { cores, ..ClusterConfig::default() };
    let mut sys = System::new(SystemConfig { cluster, clusters });
    assert_eq!(sys.backed_bytes(), 0, "System::new backs no guest memory");

    let (n, block) = Kernel::GemmTiled.operating_point();
    let program = Kernel::GemmTiled.build_grid(Variant::Copift, n, block, cores, clusters);
    let (tcdm, main, l2) =
        (program.tcdm_image().len(), program.main_image().len(), program.l2_image().len());
    sys.load_program(&program);
    // Every cluster holds its images and an L2 copy, and the system holds
    // the canonical L2. Peer snapshots fill only when a cluster runs.
    let loaded = clusters * (tcdm + main + l2) + l2;
    assert_eq!(sys.backed_bytes(), loaded);

    // The clusters run concurrently and store inside the images only, and
    // each of a cluster's peer snapshots copies at most the TCDM image its
    // owner wrote.
    sys.run().expect("gemm_tiled completes");
    assert!(!took_rerun(&sys), "gemm_tiled runs its clusters concurrently");
    let peers = sys.backed_bytes() - loaded;
    assert!(peers <= clusters * (clusters - 1) * tcdm, "{peers} bytes of snapshots");
    assert!(sys.read_mem(0xFFFF_FFFC, 8).is_err(), "no overflow at the top of the map");
}
