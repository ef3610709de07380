//! The simulator parameters of the paper's Table 2, plus the calibrated
//! disk constants used by the optimizer's cost model.
//!
//! | Parameter  | Value | Description                                 |
//! |------------|-------|---------------------------------------------|
//! | Mips       | 50    | CPU speed (10^6 instructions per second)    |
//! | NumDisks   | 1     | number of disks on a site                   |
//! | DiskInst   | 5000  | instructions to read a page from disk       |
//! | PageSize   | 4096  | size of one data page (bytes)               |
//! | NetBw      | 100   | network bandwidth (Mbit/sec)                |
//! | MsgInst    | 20000 | instructions to send/receive a message      |
//! | PerSizeMI  | 12000 | instructions to send/receive 4096 bytes     |
//! | Display    | 0     | instructions to display a tuple             |
//! | Compare    | 2     | instructions to apply a predicate           |
//! | HashInst   | 9     | instructions to hash a tuple                |
//! | MoveInst   | 1     | instructions to copy 4 bytes                |
//! | BufAlloc   | min/max | buffer allocated to a join (Shapiro)      |

use csqp_json::{obj, Json, JsonError};

/// Join buffer allocation policy, after Shapiro \[Sha86\] (§3.2.2, §4.1).
///
/// * `Max` lets the hash table for the inner relation be built entirely in
///   main memory (`⌈F·N⌉` frames for an `N`-page inner, fudge `F = 1.2`).
/// * `Min` reserves `⌈F·√N⌉` frames and forces the inner and outer to be
///   split into partitions spilled to temporary storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufAlloc {
    /// Minimum allocation: `⌈F·√N⌉` frames, partitions spill to disk.
    Min,
    /// Maximum allocation: inner hash table fully in memory.
    Max,
}

/// The complete system configuration (Table 2) plus the two calibrated
/// per-page disk costs the optimizer's cost model uses.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU speed in millions of instructions per second (`Mips`).
    pub mips: u64,
    /// Number of disks on each site (`NumDisks`).
    pub num_disks: u32,
    /// CPU instructions charged per disk I/O request (`DiskInst`).
    pub disk_inst: u64,
    /// Size of one data page in bytes (`PageSize`).
    pub page_size: u32,
    /// Network bandwidth in Mbit/sec (`NetBw`).
    pub net_bw_mbit: u64,
    /// Fixed CPU instructions to send or receive one message (`MsgInst`).
    pub msg_inst: u64,
    /// CPU instructions to send or receive `page_size` bytes (`PerSizeMI`).
    pub per_size_mi: u64,
    /// CPU instructions to display one result tuple (`Display`).
    pub display_inst: u64,
    /// CPU instructions to apply a predicate to one tuple (`Compare`).
    pub compare_inst: u64,
    /// CPU instructions to hash one tuple (`HashInst`).
    pub hash_inst: u64,
    /// CPU instructions to copy 4 bytes in memory (`MoveInst`).
    pub move_inst: u64,
    /// Buffer allocation given to each join (`BufAlloc`).
    pub buf_alloc: BufAlloc,
    /// Hybrid-hash fudge factor `F` (Shapiro uses 1.2, §3.2.2).
    pub fudge: f64,
    /// Calibrated average sequential disk cost per page, in milliseconds.
    ///
    /// "The average performance of the disk model with these settings is
    /// roughly 3.5 msec per page for sequential I/O … these values were
    /// obtained by separate simulation runs to calibrate the cost model of
    /// the optimizer." (§4.1)
    pub disk_seq_page_ms: f64,
    /// Calibrated average random disk cost per page, in milliseconds (11.8
    /// in the paper).
    pub disk_rand_page_ms: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            mips: 50,
            num_disks: 1,
            disk_inst: 5_000,
            page_size: 4_096,
            net_bw_mbit: 100,
            msg_inst: 20_000,
            per_size_mi: 12_000,
            display_inst: 0,
            compare_inst: 2,
            hash_inst: 9,
            move_inst: 1,
            buf_alloc: BufAlloc::Min,
            fudge: 1.2,
            disk_seq_page_ms: 3.5,
            disk_rand_page_ms: 11.8,
        }
    }
}

impl SystemConfig {
    /// Seconds of CPU time for `instructions` at this site speed.
    #[inline]
    pub fn cpu_secs(&self, instructions: u64) -> f64 {
        instructions as f64 / (self.mips as f64 * 1e6)
    }

    /// Seconds of wire time for `bytes` at the configured bandwidth.
    #[inline]
    pub fn wire_secs(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.net_bw_mbit as f64 * 1e6)
    }

    /// CPU instructions to send *or* receive a message of `bytes` bytes:
    /// the fixed `MsgInst` plus the size-dependent `PerSizeMI` prorated by
    /// page size.
    #[inline]
    pub fn msg_cpu_instr(&self, bytes: u64) -> u64 {
        self.msg_inst
            + crate::num::sat_u64(self.per_size_mi as f64 * bytes as f64 / self.page_size as f64)
    }

    /// CPU instructions to copy one tuple of `tuple_bytes` bytes
    /// (`MoveInst` per 4 bytes).
    #[inline]
    pub fn move_tuple_instr(&self, tuple_bytes: u32) -> u64 {
        self.move_inst * (tuple_bytes as u64).div_ceil(4)
    }

    /// Serialize to a flat JSON object (the persistence format for
    /// experiment configurations).
    pub fn to_json(&self) -> String {
        obj(vec![
            ("mips", Json::from(self.mips)),
            ("num_disks", Json::from(self.num_disks)),
            ("disk_inst", Json::from(self.disk_inst)),
            ("page_size", Json::from(self.page_size)),
            ("net_bw_mbit", Json::from(self.net_bw_mbit)),
            ("msg_inst", Json::from(self.msg_inst)),
            ("per_size_mi", Json::from(self.per_size_mi)),
            ("display_inst", Json::from(self.display_inst)),
            ("compare_inst", Json::from(self.compare_inst)),
            ("hash_inst", Json::from(self.hash_inst)),
            ("move_inst", Json::from(self.move_inst)),
            (
                "buf_alloc",
                Json::from(match self.buf_alloc {
                    BufAlloc::Min => "min",
                    BufAlloc::Max => "max",
                }),
            ),
            ("fudge", Json::from(self.fudge)),
            ("disk_seq_page_ms", Json::from(self.disk_seq_page_ms)),
            ("disk_rand_page_ms", Json::from(self.disk_rand_page_ms)),
        ])
        .render()
    }

    /// Parse a configuration stored with [`SystemConfig::to_json`].
    pub fn from_json(json: &str) -> Result<SystemConfig, JsonError> {
        let doc = Json::parse(json)?;
        let u64_of = |k: &str| -> Result<u64, JsonError> {
            doc.field(k)?
                .as_u64()
                .ok_or_else(|| JsonError::decode(k, "expected a non-negative integer"))
        };
        let f64_of = |k: &str| -> Result<f64, JsonError> {
            doc.field(k)?
                .as_f64()
                .ok_or_else(|| JsonError::decode(k, "expected a number"))
        };
        let buf_alloc = match doc.field("buf_alloc")?.as_str() {
            Some("min") => BufAlloc::Min,
            Some("max") => BufAlloc::Max,
            _ => {
                return Err(JsonError::decode(
                    "buf_alloc",
                    "expected \"min\" or \"max\"",
                ))
            }
        };
        let u32_of = |k: &str| -> Result<u32, JsonError> {
            u32::try_from(u64_of(k)?).map_err(|_| JsonError::decode(k, "value out of u32 range"))
        };
        Ok(SystemConfig {
            mips: u64_of("mips")?,
            num_disks: u32_of("num_disks")?,
            disk_inst: u64_of("disk_inst")?,
            page_size: u32_of("page_size")?,
            net_bw_mbit: u64_of("net_bw_mbit")?,
            msg_inst: u64_of("msg_inst")?,
            per_size_mi: u64_of("per_size_mi")?,
            display_inst: u64_of("display_inst")?,
            compare_inst: u64_of("compare_inst")?,
            hash_inst: u64_of("hash_inst")?,
            move_inst: u64_of("move_inst")?,
            buf_alloc,
            fudge: f64_of("fudge")?,
            disk_seq_page_ms: f64_of("disk_seq_page_ms")?,
            disk_rand_page_ms: f64_of("disk_rand_page_ms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2, asserted value by value — this is experiment T2.
    #[test]
    fn table2_defaults() {
        let c = SystemConfig::default();
        assert_eq!(c.mips, 50);
        assert_eq!(c.num_disks, 1);
        assert_eq!(c.disk_inst, 5000);
        assert_eq!(c.page_size, 4096);
        assert_eq!(c.net_bw_mbit, 100);
        assert_eq!(c.msg_inst, 20000);
        assert_eq!(c.per_size_mi, 12000);
        assert_eq!(c.display_inst, 0);
        assert_eq!(c.compare_inst, 2);
        assert_eq!(c.hash_inst, 9);
        assert_eq!(c.move_inst, 1);
        assert_eq!(c.buf_alloc, BufAlloc::Min);
        assert!((c.fudge - 1.2).abs() < 1e-12);
    }

    #[test]
    fn cpu_time_at_50_mips() {
        let c = SystemConfig::default();
        // 50 MIPS -> 20 ns per instruction.
        assert!((c.cpu_secs(1) - 20e-9).abs() < 1e-18);
        assert!((c.cpu_secs(5000) - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn wire_time_for_one_page() {
        let c = SystemConfig::default();
        // 4096 B at 100 Mbit/s = 327.68 microseconds.
        assert!((c.wire_secs(4096) - 327.68e-6).abs() < 1e-12);
    }

    #[test]
    fn message_cpu_scales_with_size() {
        let c = SystemConfig::default();
        assert_eq!(c.msg_cpu_instr(4096), 32_000);
        assert_eq!(c.msg_cpu_instr(0), 20_000);
        assert_eq!(c.msg_cpu_instr(2048), 26_000);
        // A 256-byte control message (`csqp_net::CONTROL_MSG_BYTES`).
        assert_eq!(c.msg_cpu_instr(256), 20_750);
    }

    #[test]
    fn tuple_move_cost() {
        let c = SystemConfig::default();
        // 100-byte tuple -> 25 word copies.
        assert_eq!(c.move_tuple_instr(100), 25);
        // Rounds up for non-multiples of 4.
        assert_eq!(c.move_tuple_instr(5), 2);
    }

    #[test]
    fn json_round_trip() {
        let mut c = SystemConfig::default();
        let back = SystemConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(c, back);
        // The non-default BufAlloc arm survives too.
        c.buf_alloc = BufAlloc::Max;
        let back = SystemConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn json_rejects_bad_documents() {
        assert!(SystemConfig::from_json("{").is_err());
        assert!(SystemConfig::from_json("{}").is_err());
        let bad = SystemConfig::default()
            .to_json()
            .replace("\"min\"", "\"typo\"");
        assert!(SystemConfig::from_json(&bad).is_err());
    }
}
