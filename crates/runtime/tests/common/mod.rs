//! Shared by the integration tests that pin what the schedulers commit.

use acfc_sim::{BackendError, StateBackend, StateSnapshot};
use std::collections::BTreeMap;

/// Keeps the encoded payload of every commit, by `(proc, seq)`.
#[derive(Default)]
pub struct PayloadLog(pub BTreeMap<(usize, u64), Vec<u8>>);

impl StateBackend for PayloadLog {
    fn name(&self) -> &'static str {
        "payloads"
    }

    fn commit(&mut self, snap: &StateSnapshot) -> Result<(), BackendError> {
        self.0.insert((snap.proc, snap.seq), snap.encode());
        Ok(())
    }

    fn load(&mut self, proc: usize, seq: u64) -> Result<StateSnapshot, BackendError> {
        let payload = self.0.get(&(proc, seq));
        StateSnapshot::decode(payload.ok_or(BackendError::Missing { proc, seq })?)
    }

    fn committed(&mut self) -> Result<Vec<(usize, u64)>, BackendError> {
        Ok(self.0.keys().copied().collect())
    }

    fn discard_after(&mut self, proc: usize, seq: u64) -> Result<(), BackendError> {
        self.0.retain(|&(p, s), _| p != proc || s <= seq);
        Ok(())
    }
}

/// `late` is never declared: its slot binds on the first assignment,
/// in the third iteration, between the "before" and "after"
/// checkpoints — so every worker's binding row changes mid-run and the
/// reusable snapshot has to rebuild its names exactly then.
pub const LATE_BINDING: &str = "\
program late_binding;
param iters = 5;
var i;
var acc;
for i in 0..iters {
  compute 20;
  acc := acc + rank + i;
  send to (rank + 1) % nprocs size 512;
  recv from (rank - 1) % nprocs;
  checkpoint \"before\";
  if i == 2 {
    late := acc * 3;
  }
  checkpoint \"after\";
}
";
