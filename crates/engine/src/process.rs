//! The process abstraction: operators as resumable state machines.
//!
//! The kernel resumes an operator with the outcome of its last
//! `AwaitInput` and the operator appends its next batch of [`Action`]s
//! to a buffer the kernel owns and reuses for the process's whole life,
//! so a resume allocates nothing once the buffer has grown to the
//! operator's largest batch.

use csqp_catalog::SiteId;
use csqp_disk::DiskAddr;
use csqp_simkernel::SimDuration;

/// A page of tuples flowing between operators. Contents are synthetic —
/// only the tuple count matters to the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Page {
    /// Number of tuples on the page.
    pub tuples: u64,
}

/// Identifies a channel between two operator processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub usize);

/// Identifies an operator process.
pub type ProcId = usize;

/// What a resumed process receives from its last `AwaitInput`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeInput {
    /// Nothing was awaited (first resume, or last batch ended elsewhere).
    None,
    /// A page arrived on the awaited channel.
    Page(Page),
    /// The awaited channel is closed and drained.
    EndOfStream,
}

/// One primitive step a process asks the kernel to perform.
///
/// Actions in a batch run sequentially. `AwaitInput` must be the final
/// action of its batch (its result is delivered to the next resume);
/// `Done` terminates the process.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// Occupy `site`'s CPU for `instr` instructions.
    Cpu {
        /// Site whose CPU is charged.
        site: SiteId,
        /// Instruction count (Table 2 units).
        instr: u64,
    },
    /// Synchronous one-page disk read (the process waits).
    DiskRead {
        /// Site whose disk is used.
        site: SiteId,
        /// Page address.
        addr: DiskAddr,
    },
    /// Synchronous one-page disk write.
    DiskWrite {
        /// Site whose disk is used.
        site: SiteId,
        /// Page address.
        addr: DiskAddr,
    },
    /// Fire-and-forget one-page disk write (write-behind); completion is
    /// tracked and awaited by `DrainWrites`.
    DiskWriteAsync {
        /// Site whose disk is used.
        site: SiteId,
        /// Page address.
        addr: DiskAddr,
    },
    /// Fire-and-forget one-page disk read (used by the external load
    /// generator; nobody waits for it).
    DiskReadAsync {
        /// Site whose disk is used.
        site: SiteId,
        /// Page address.
        addr: DiskAddr,
    },
    /// Block until all of this process's outstanding async writes finish.
    DrainWrites,
    /// Occupy the shared network link for a message of `bytes` bytes (the
    /// process waits; used for the fault-RPC path — pipelined transfers go
    /// through remote channels instead).
    Wire {
        /// Message size in bytes.
        bytes: u64,
        /// True when the message is a full data page (counts towards the
        /// "pages sent" metric).
        data_page: bool,
    },
    /// Emit a page downstream; blocks while the channel is full.
    Emit {
        /// Destination channel.
        channel: ChannelId,
        /// The page.
        page: Page,
    },
    /// Close the downstream channel (end of stream).
    Close {
        /// The channel to close.
        channel: ChannelId,
    },
    /// Await the next page (or end-of-stream) on a channel. Must be the
    /// last action of its batch.
    AwaitInput {
        /// The channel to read.
        channel: ChannelId,
    },
    /// Sleep for a duration (load generator inter-arrival times).
    Sleep {
        /// How long.
        dur: SimDuration,
    },
    /// The process is finished.
    Done,
}

/// An operator process. `resume` is called with the result of the
/// previous batch's `AwaitInput` (or [`ResumeInput::None`]) and appends
/// the next batch of actions to `out`.
pub trait OperatorProc {
    /// Append the next batch of actions to `out`, which the kernel hands
    /// over empty; the batch must not be empty.
    fn resume(&mut self, input: ResumeInput, out: &mut Vec<Action>);

    /// Short label for diagnostics.
    fn label(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_copy_and_comparable() {
        let p = Page { tuples: 40 };
        let q = p;
        assert_eq!(p, q);
    }

    #[test]
    fn resume_input_variants() {
        assert_ne!(ResumeInput::None, ResumeInput::EndOfStream);
        assert_eq!(
            ResumeInput::Page(Page { tuples: 1 }),
            ResumeInput::Page(Page { tuples: 1 })
        );
    }
}
