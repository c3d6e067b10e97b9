//! Worker-process lifecycle for tests, benches and fault drills: spawn a
//! fleet of `hetgc-worker` binaries against a master address, kill
//! individual members mid-run to inject faults, and reap everything on
//! drop.

use std::process::{Child, Command, Stdio};

/// A set of spawned worker processes tied to one master.
///
/// Dropping the fleet kills and reaps every still-running child, so a
/// panicking test cannot leak orphan workers.
#[derive(Debug, Default)]
pub struct WorkerFleet {
    bin: String,
    children: Vec<Option<Child>>,
}

impl WorkerFleet {
    /// Spawns `count` copies of the worker binary at `bin`, each told to
    /// connect to `addr`. In tests and benches of this crate, pass
    /// `env!("CARGO_BIN_EXE_hetgc-worker")`.
    ///
    /// Worker stdout is discarded; stderr is inherited so worker-side
    /// errors surface in test output.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures (missing binary, resource limits).
    pub fn spawn(bin: &str, addr: &str, count: usize) -> std::io::Result<Self> {
        let mut fleet = WorkerFleet {
            bin: bin.to_owned(),
            children: Vec::with_capacity(count),
        };
        for _ in 0..count {
            fleet.spawn_with_args(&[addr])?;
        }
        Ok(fleet)
    }

    /// Spawns one more worker with an explicit argument vector — e.g.
    /// `&[addr, "--metrics-addr", "127.0.0.1:9101"]` for a worker that
    /// serves its own exposition endpoint. The child joins the fleet and
    /// is reaped with it.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn spawn_with_args(&mut self, args: &[&str]) -> std::io::Result<()> {
        let child = Command::new(&self.bin)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        self.children.push(Some(child));
        Ok(())
    }

    /// Fault injection: kill worker `i` (spawn order) with SIGKILL — a
    /// fail-stop crash, no goodbye frame. Idempotent; reaps the child so
    /// it does not linger as a zombie.
    pub fn kill(&mut self, i: usize) {
        if let Some(child) = self.children.get_mut(i).and_then(Option::take) {
            reap(child);
        }
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for child in self.children.iter_mut().filter_map(Option::take) {
            reap(child);
        }
    }
}

fn reap(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}
