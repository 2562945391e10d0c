//! Small-kernel launch accounting — the structural hook for the paper's
//! CUDA-graph optimization (§5.1).
//!
//! Every per-process, per-PFT update in the land model dispatches through
//! a [`LaunchRecorder`]. In `Individual` mode each dispatch counts as one
//! kernel launch (what OpenACC does, paying launch latency every time).
//! In `Graph` mode the first step *records* the launch sequence and
//! subsequent steps *replay* it: the dispatch sequence is checked against
//! the recording (CUDA graphs replay "exactly the same way") and only one
//! graph-launch is counted. The measured counts drive
//! [`machine::graphs`](../machine) and the `land.kernels_per_step` row of
//! `perf/`.

/// Launch mode, mirroring OpenACC kernels vs CUDA-graph replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Every kernel pays a launch (OpenACC baseline).
    Individual,
    /// Record on first step, replay afterwards.
    Graph,
}

/// Records kernel dispatches of the land model.
#[derive(Debug)]
pub struct LaunchRecorder {
    mode: LaunchMode,
    /// Total individual kernel launches issued (Individual mode, or the
    /// recording pass of Graph mode).
    pub kernel_launches: u64,
    /// Graph replays performed.
    pub graph_replays: u64,
    /// Kernel names in recording order (first step only).
    recording: Vec<&'static str>,
    /// Cursor while replaying/verifying.
    cursor: usize,
    recorded: bool,
    in_step: bool,
}

impl LaunchRecorder {
    pub fn new(mode: LaunchMode) -> Self {
        LaunchRecorder {
            mode,
            kernel_launches: 0,
            graph_replays: 0,
            recording: Vec::new(),
            cursor: 0,
            recorded: false,
            in_step: false,
        }
    }

    pub fn mode(&self) -> LaunchMode {
        self.mode
    }

    /// Begin a model step.
    pub fn begin_step(&mut self) {
        assert!(!self.in_step, "nested steps");
        self.in_step = true;
        self.cursor = 0;
        if self.mode == LaunchMode::Graph && self.recorded {
            self.graph_replays += 1;
        }
    }

    /// Dispatch one kernel. Panics in Graph mode if the replayed sequence
    /// diverges from the recording — CUDA graphs cannot change shape
    /// between replays, and neither can the land model's call flow.
    #[inline]
    pub fn launch(&mut self, name: &'static str) {
        debug_assert!(self.in_step, "launch outside a step");
        match self.mode {
            LaunchMode::Individual => self.kernel_launches += 1,
            LaunchMode::Graph => {
                if !self.recorded {
                    self.kernel_launches += 1;
                    self.recording.push(name);
                } else {
                    assert!(
                        self.cursor < self.recording.len()
                            && self.recording[self.cursor] == name,
                        "graph replay diverged at kernel {}: expected {:?}, got {name}",
                        self.cursor,
                        self.recording.get(self.cursor)
                    );
                    self.cursor += 1;
                }
            }
        }
    }

    /// End a model step.
    pub fn end_step(&mut self) {
        assert!(self.in_step);
        self.in_step = false;
        if self.mode == LaunchMode::Graph {
            if !self.recorded {
                self.recorded = true;
            } else {
                assert_eq!(
                    self.cursor,
                    self.recording.len(),
                    "graph replay ended early"
                );
            }
        }
    }

    /// Kernels per recorded step: the length of the recording after the
    /// first step in Graph mode; 0 in Individual mode, which records none.
    pub fn kernels_per_step(&self) -> usize {
        if self.mode == LaunchMode::Graph {
            self.recording.len()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn individual_mode_counts_every_launch() {
        let mut r = LaunchRecorder::new(LaunchMode::Individual);
        for _ in 0..3 {
            r.begin_step();
            r.launch("a");
            r.launch("b");
            r.end_step();
        }
        assert_eq!(r.kernel_launches, 6);
        assert_eq!(r.graph_replays, 0);
    }

    #[test]
    fn graph_mode_records_once_then_replays() {
        let mut r = LaunchRecorder::new(LaunchMode::Graph);
        for _ in 0..4 {
            r.begin_step();
            r.launch("gpp");
            r.launch("resp");
            r.end_step();
        }
        assert_eq!(r.kernel_launches, 2, "only the recording pass launches");
        assert_eq!(r.graph_replays, 3);
        assert_eq!(r.kernels_per_step(), 2);
    }

    #[test]
    #[should_panic(expected = "graph replay diverged")]
    fn divergent_replay_panics() {
        let mut r = LaunchRecorder::new(LaunchMode::Graph);
        r.begin_step();
        r.launch("a");
        r.end_step();
        r.begin_step();
        r.launch("b");
    }

    #[test]
    #[should_panic(expected = "graph replay ended early")]
    fn short_replay_panics() {
        let mut r = LaunchRecorder::new(LaunchMode::Graph);
        r.begin_step();
        r.launch("a");
        r.launch("b");
        r.end_step();
        r.begin_step();
        r.launch("a");
        r.end_step();
    }
}
