//! Seeded inputs: the paper-default deployment (laboratory, 2 persons ×
//! 3 tags, 4 antennas, 0.5 s windows, calibrated joint features) and
//! simulated reader recordings of its twelve activities.
//!
//! Everything here derives from the workload seed alone; the program
//! under test only ever sees the generated readings and frames.

use crate::windows::WINDOW_S;
use m2ai_core::dataset::{learn_calibration, ExperimentConfig, N_CLASSES};
use m2ai_core::frames::FrameBuilder;
use m2ai_core::online::{HealthState, SessionWindow, WindowEvent};
use m2ai_core::serve::ServeConfig;
use m2ai_core::stream_extract::StreamingExtract;
use m2ai_motion::activity::{catalog, ActivityScenario};
use m2ai_motion::scene::ActivityScene;
use m2ai_motion::volunteer::Volunteer;
use m2ai_rfsim::geometry::{Point2, Vec2};
use m2ai_rfsim::reader::{Reader, ReaderConfig};
use m2ai_rfsim::reading::TagReading;
use m2ai_rfsim::room::Room;

/// Windows per recording, as in the dataset's `frames_per_sample`.
pub const RECORDING_WINDOWS: usize = 10;

/// One antenna round: 4 ports × 25 ms.
pub const ROUND_S: f64 = 0.1;

/// Rounds per frame window.
pub const ROUNDS_PER_WINDOW: usize = 5;

/// Recordings per session: one base period of its stream.
pub const SESSION_RECORDINGS: usize = 2;

/// Rounds per recording.
const RECORDING_ROUNDS: usize = RECORDING_WINDOWS * ROUNDS_PER_WINDOW;

/// splitmix64: a small, fixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper-default experiment under a workload seed.
pub fn experiment(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        n_threads: 2,
        ..ExperimentConfig::paper_default()
    }
}

/// One reader deployment: the room, the reader, the frame builder
/// with its learned phase calibration, and the activity catalogue.
#[derive(Debug, Clone)]
pub struct Deployment {
    pub config: ExperimentConfig,
    room: Room,
    reader: ReaderConfig,
    pub builder: FrameBuilder,
    scenarios: Vec<ActivityScenario>,
}

impl Deployment {
    pub fn new(seed: u64) -> Self {
        let config = experiment(seed);
        let room = config.room.build();
        // The dataset generator's reader placement: centred on the
        // near wall, facing into the room.
        let reader = ReaderConfig {
            n_antennas: config.n_antennas,
            array_center: Point2::new(room.width / 2.0, 0.3),
            array_axis: Vec2::new(1.0, 0.0),
            seed: config.seed,
            ..ReaderConfig::default()
        };
        let builder = FrameBuilder::new(
            config.layout(),
            learn_calibration(&config),
            config.frame_duration_s,
        );
        Deployment {
            scenarios: catalog(config.n_persons),
            config,
            room,
            reader,
            builder,
        }
    }

    /// The scene of one recording: activity `class` performed by a
    /// rotating volunteer pair at a jittered spot.
    pub fn scene(&self, class: usize, rng: &mut Rng) -> ActivityScene {
        let base = Point2::new(self.room.width / 2.0, 0.3 + self.config.distance_m);
        let j = self.config.placement_jitter_m;
        let spot = self.room.clamp_inside(
            Point2::new(
                base.x + (2.0 * rng.unit() - 1.0) * j,
                base.y + (2.0 * rng.unit() - 1.0) * j,
            ),
            0.8,
        );
        let first = rng.below(8);
        let volunteers: Vec<Volunteer> = (0..3).map(|p| Volunteer::preset(first + p * 3)).collect();
        ActivityScene::with_placement(
            &self.scenarios[class],
            &volunteers,
            self.config.tags_per_person,
            rng.next_u64(),
            spot,
        )
    }

    /// Runs the reader over one scene for a recording's duration.
    pub fn record(&self, scene: &ActivityScene) -> Vec<TagReading> {
        let mut reader = Reader::new(self.room.clone(), self.reader.clone(), self.config.n_tags());
        reader.run(|t| scene.snapshot(t), RECORDING_WINDOWS as f64 * WINDOW_S)
    }
}

/// The fabric engines' configuration: `ServeConfig` defaults plus
/// streaming extraction on the raw-readings path.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        streaming: Some(StreamingExtract::default()),
        ..ServeConfig::default()
    }
}

/// One session's input, as a base period that repeats with its times
/// shifted by the period length.
#[derive(Debug, Clone)]
pub enum SessionInput {
    /// One reader inventory round per push.
    Rounds(Vec<Vec<TagReading>>),
    /// One extracted frame per push: `(time_s, frame, health)`.
    Frames(Vec<(f64, Vec<f32>, HealthState)>),
}

/// A single push, materialised.
#[derive(Debug, Clone)]
pub enum Push {
    Reads(Vec<TagReading>),
    Frame(f64, Vec<f32>, HealthState),
}

impl Push {
    /// Latest reading time carried (the frame's window end for frames).
    pub fn max_time(&self) -> Option<f64> {
        match self {
            Push::Reads(r) => r.iter().map(|r| r.time_s).reduce(f64::max),
            Push::Frame(t, _, _) => Some(*t),
        }
    }
}

impl SessionInput {
    fn period_len(&self) -> usize {
        match self {
            SessionInput::Rounds(r) => r.len(),
            SessionInput::Frames(f) => f.len(),
        }
    }

    /// Pushes per frame window.
    pub fn pushes_per_window(&self) -> u64 {
        match self {
            SessionInput::Rounds(_) => ROUNDS_PER_WINDOW as u64,
            SessionInput::Frames(_) => 1,
        }
    }

    /// Push `j` of the endless session stream.
    pub fn push(&self, j: u64) -> Push {
        let p = self.period_len() as u64;
        let shift = (j / p) as f64 * (p / self.pushes_per_window()) as f64 * WINDOW_S;
        match self {
            SessionInput::Rounds(rounds) => Push::Reads(
                rounds[(j % p) as usize]
                    .iter()
                    .map(|r| TagReading {
                        time_s: r.time_s + shift,
                        ..r.clone()
                    })
                    .collect(),
            ),
            SessionInput::Frames(frames) => {
                let (t, f, h) = &frames[(j % p) as usize];
                Push::Frame(t + shift, f.clone(), *h)
            }
        }
    }
}

/// Splits one recording into its inventory rounds, shifted by
/// `offset_s`. A round the reader's accumulated clock starts just
/// short of the recording's end is dropped.
fn rounds_of(readings: &[TagReading], offset_s: f64) -> Vec<Vec<TagReading>> {
    let mut rounds = vec![Vec::new(); RECORDING_ROUNDS];
    for r in readings {
        // Round starts accumulate in the reader; the epsilon keeps a
        // start a hair below k·0.1 in round k.
        let k = ((r.time_s / ROUND_S) + 1e-6).floor() as usize;
        if let Some(round) = rounds.get_mut(k) {
            round.push(TagReading {
                time_s: r.time_s + offset_s,
                ..r.clone()
            });
        }
    }
    rounds
}

/// Generated inputs of a serve workload.
pub struct ServeInputs {
    pub sessions: Vec<SessionInput>,
    /// Window phase of each session, in pushes.
    pub phases: Vec<f64>,
    /// Recordings simulated (the rate numerator of input generation).
    pub recordings: usize,
}

/// Simulates [`SESSION_RECORDINGS`] activity recordings per session,
/// back to back, as each session's base period; in frame mode, extracts
/// them with the serve path's own streaming windowing.
pub fn serve_inputs(dep: &Deployment, seed: u64, sessions: usize, frames: bool) -> ServeInputs {
    let recordings = SESSION_RECORDINGS;
    let mut rng = Rng::new(seed ^ 0x5E55_1075);
    let mut out = Vec::with_capacity(sessions);
    // Window phases are stratified — one per 1/sessions of a window —
    // and dealt to sessions in seeded order, so every seed staggers
    // window closes equally evenly.
    let phase_offset = rng.unit();
    let mut slots: Vec<usize> = (0..sessions).collect();
    for i in (1..sessions).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    let mut phases = Vec::with_capacity(sessions);
    for (i, slot) in slots.iter().enumerate() {
        let mut rounds = Vec::with_capacity(recordings * RECORDING_ROUNDS);
        for m in 0..recordings {
            // Classes cycle so every seed serves the same activity mix;
            // the seed varies who performs them, where, and when.
            let class = (i * recordings + m) % N_CLASSES;
            let scene = dep.scene(class, &mut rng);
            let start_s = (m * RECORDING_WINDOWS) as f64 * WINDOW_S;
            rounds.extend(rounds_of(&dep.record(&scene), start_s));
        }
        let input = SessionInput::Rounds(rounds);
        let ppw = input.pushes_per_window() as f64;
        phases.push((*slot as f64 + phase_offset) / sessions as f64 * ppw);
        out.push(if frames {
            extract_frames(dep, &input)
        } else {
            input
        });
    }
    ServeInputs {
        sessions: out,
        phases,
        recordings: sessions * recordings,
    }
}

/// Frames of one base period, as the serve engine's windowing would
/// build them (the period's first round is replayed, shifted, to close
/// its last window).
fn extract_frames(dep: &Deployment, input: &SessionInput) -> SessionInput {
    let SessionInput::Rounds(rounds) = input else {
        unreachable!("frames are extracted from rounds")
    };
    let mut window = SessionWindow::new(
        dep.builder.clone(),
        crate::windows::HISTORY,
        serve_config().health,
    )
    .with_streaming(StreamingExtract::default());
    let mut events = Vec::new();
    for j in 0..=rounds.len() as u64 {
        if let Push::Reads(r) = input.push(j) {
            window.push(&r, &mut events);
        }
    }
    let frames = events
        .into_iter()
        .map(|ev| match ev {
            WindowEvent::Frame {
                time_s,
                frame,
                health,
            } => (time_s, frame, health),
            WindowEvent::Stale { .. } => unreachable!("recordings have no silent gaps"),
        })
        .collect::<Vec<_>>();
    assert_eq!(frames.len(), rounds.len() / ROUNDS_PER_WINDOW);
    SessionInput::Frames(frames)
}
