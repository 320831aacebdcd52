//! Process counters read from `/proc/self` (no libc).

/// Clock ticks per second of `/proc/self/stat` times. Linux has reported
/// `USER_HZ = 100` on every architecture this builds for; reading it
/// properly would need `sysconf`, hence libc.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_cpu_s: f64,
    pub sys_cpu_s: f64,
    pub minor_faults: f64,
}

impl Usage {
    /// Counters of this process (all threads) since it started.
    pub fn now() -> Usage {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may hold spaces; fields are counted
        // from the closing parenthesis: state is field 3.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let field = |n: usize| -> f64 {
            after
                .split_whitespace()
                .nth(n - 3)
                .and_then(|f| f.parse().ok())
                .unwrap_or(0.0)
        };
        Usage {
            minor_faults: field(10),
            user_cpu_s: field(14) / USER_HZ,
            sys_cpu_s: field(15) / USER_HZ,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_cpu_s: self.user_cpu_s - earlier.user_cpu_s,
            sys_cpu_s: self.sys_cpu_s - earlier.sys_cpu_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}
