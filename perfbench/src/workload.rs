//! The four workloads: which design each one synthesizes, with which
//! `sunfloor3d` flags, and how the in-process reference reproduces the
//! configuration the CLI builds from those flags.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use sunfloor_benchmarks::{distributed, media26, pipeline_seeded, Benchmark};
use sunfloor_cli::Options;
use sunfloor_core::synthesis::{ConfigError, SynthesisConfig};

/// One benchmark workload. The workload seed is the partitioner seed
/// (`--seed`) everywhere and, for `pipe128`, also the generator's seed base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `D_26_media` with the CLI defaults.
    Media26,
    /// `D_36_8` swept over three frequencies.
    Dense36,
    /// A seeded 128-core pipeline, switch counts `1..32` by 2.
    Pipe128,
    /// `D_26_media` laid out by the tempered annealer, on the parallel sweep.
    Tempered,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Self; 4] = [Self::Media26, Self::Dense36, Self::Pipe128, Self::Tempered];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Media26 => "media26",
            Self::Dense36 => "dense36",
            Self::Pipe128 => "pipe128",
            Self::Tempered => "tempered",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many designs one run cycles through. The workload seed derives
    /// one member seed per design; averaging over the panel keeps a run's
    /// figures from hinging on a single partitioner or generator seed,
    /// whose effect on op time reaches ±20% on `pipe128`.
    #[must_use]
    pub fn panel_size(self) -> usize {
        match self {
            Self::Dense36 => 4,
            Self::Media26 | Self::Tempered => 8,
            Self::Pipe128 => 16,
        }
    }

    /// How many threads one op keeps busy.
    #[must_use]
    pub fn threads(self) -> usize {
        if self == Self::Tempered {
            2
        } else {
            1
        }
    }

    /// The member seeds of the panel for workload seed `seed`.
    #[must_use]
    pub fn member_seeds(self, seed: u64) -> Vec<u64> {
        (0..self.panel_size() as u64)
            .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
            .collect()
    }

    /// Whether the generated design depends on the member seed (otherwise
    /// only the partitioner seed does).
    #[must_use]
    pub fn seeded_design(self) -> bool {
        self == Self::Pipe128
    }

    /// Generates the design of one panel member. This is program work:
    /// the generators run the floorplan annealer.
    #[must_use]
    pub fn design(self, member_seed: u64) -> Benchmark {
        match self {
            Self::Media26 | Self::Tempered => media26(),
            Self::Dense36 => distributed(8),
            Self::Pipe128 => pipeline_seeded(128, member_seed),
        }
    }

    /// The `sunfloor3d` flags of one op, apart from `--cores`, `--comm`
    /// and `--out`.
    #[must_use]
    pub fn flags(self, seed: u64) -> Vec<String> {
        let seed = seed.to_string();
        let flags: &[&str] = match self {
            Self::Media26 => &["--jobs", "1"],
            Self::Dense36 => &["--frequency", "300,400,500", "--jobs", "1"],
            Self::Pipe128 => &[
                "--frequency",
                "200",
                "--switches",
                "1..32",
                "--step",
                "2",
                "--jobs",
                "1",
            ],
            Self::Tempered => &["--anneal-replicas", "2", "--jobs", "2"],
        };
        let mut out: Vec<String> = flags.iter().map(ToString::to_string).collect();
        out.extend(["--seed".to_string(), seed]);
        out
    }
}

/// Where a workload's spec files live inside a work directory.
#[derive(Debug, Clone)]
pub struct SpecFiles {
    /// Core specification.
    pub cores: PathBuf,
    /// Communication specification.
    pub comm: PathBuf,
}

impl SpecFiles {
    /// The spec file paths under `dir`.
    #[must_use]
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            cores: dir.join("design.cores"),
            comm: dir.join("design.comm"),
        }
    }

    /// Writes `bench` as the two spec files.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, bench: &Benchmark) -> io::Result<()> {
        fs::write(&self.cores, bench.soc.to_text())?;
        fs::write(&self.comm, bench.comm.to_text(&bench.soc))
    }

    /// An op's argument list on these files, apart from `--out`.
    #[must_use]
    pub fn cli_args(&self, flags: &[String]) -> Vec<String> {
        let mut args = vec![
            "--cores".to_string(),
            self.cores.display().to_string(),
            "--comm".to_string(),
            self.comm.display().to_string(),
        ];
        args.extend(flags.iter().cloned());
        args
    }
}

/// One design of a run's panel.
#[derive(Debug, Clone)]
pub struct Member {
    /// The member seed: `--seed`, and the generator seed where the design
    /// takes one.
    pub seed: u64,
    /// The member's spec files.
    pub files: SpecFiles,
    /// The op's arguments, apart from `--out`.
    pub args: Vec<String>,
}

/// The panel of workload seed `seed`, with spec files under `dir`.
#[must_use]
pub fn panel(workload: Workload, seed: u64, dir: &Path) -> Vec<Member> {
    workload
        .member_seeds(seed)
        .into_iter()
        .enumerate()
        .map(|(i, seed)| {
            let files = SpecFiles::in_dir(&dir.join(format!("m{i}")));
            let args = files.cli_args(&workload.flags(seed));
            Member { seed, files, args }
        })
        .collect()
}

/// Generates every design of the panel and writes its spec files. A design
/// that does not depend on the member seed is generated once.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_panel(workload: Workload, members: &[Member]) -> io::Result<()> {
    let mut shared: Option<Benchmark> = None;
    for m in members {
        if let Some(dir) = m.files.cores.parent() {
            fs::create_dir_all(dir)?;
        }
        if workload.seeded_design() {
            m.files.write(&workload.design(m.seed))?;
        } else {
            m.files
                .write(shared.get_or_insert_with(|| workload.design(m.seed)))?;
        }
    }
    Ok(())
}

/// Parses an op's argument list with the CLI's own parser and builds the
/// configuration from it exactly as `sunfloor3d` does, with the worker
/// count optionally overridden.
///
/// # Errors
///
/// Returns the CLI's usage message or the builder's [`ConfigError`].
pub fn cli_config(args: &[String], jobs: Option<usize>) -> Result<SynthesisConfig, String> {
    let opts = Options::parse(args).map_err(|e| e.to_string())?;
    let mut builder = SynthesisConfig::builder()
        .frequencies_mhz(opts.frequencies.iter().copied())
        .max_ill(opts.max_ill)
        .alpha(opts.alpha)
        .mode(opts.mode)
        .switch_count_step(opts.step)
        .jobs(jobs.unwrap_or(opts.jobs))
        .anneal_replicas(opts.anneal_replicas)
        .run_layout(opts.layout);
    if let Some((lo, hi)) = opts.switches {
        builder = builder.switch_count_range(lo, hi);
    }
    if let Some(seed) = opts.seed {
        builder = builder.rng_seed(seed);
    }
    builder.build().map_err(|e: ConfigError| e.to_string())
}
