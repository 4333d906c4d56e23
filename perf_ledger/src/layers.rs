//! The pinned surface: every call the benchmark makes into a `revet_*`
//! crate goes through this file, one thin function per span name. A change
//! to the product's public API shows up here and nowhere else in the
//! benchmark; README.md lists the surface.
//!
//! Deliberately absent: `run_untimed_interpreted`, `run_untimed_dense` and
//! every `_obs` / `_resumable` entry point — the benchmark must not pin what
//! the ROADMAP's "one executor API" item deletes.

pub use revet_apps::{App, Workload as Inputs};
pub use revet_core::{
    CompiledProgram, PassOptions, ProgramId, ProgramInstance, Session, StreamInstance,
};
pub use revet_machine::{ExecReport, MemoryState, TTok};
pub use revet_runtime::{BatchJob, BatchReport};
pub use revet_serve::protocol::{
    CloseReply, ExecuteReply, ExecuteRequest, InstanceOutcome, OpenStreamRequest, PollReply,
    Request, Response, StatusInfo, WireReport, WireTok,
};
pub use revet_serve::{ProgramCache, ServeClient, ServeConfig, Server};
pub use revet_sim::SimStats;
pub use revet_sltf::Word;

use revet_apps::DRAM_BYTES;
use revet_core::StreamExecutor;
use revet_machine::{ExecPlan, RunStatus};
use revet_runtime::BatchRunner;
use revet_serve::protocol;
use revet_sim::{IdealModels, RdaConfig, Simulator};
use std::sync::Arc;

/// Replicate width every source is instantiated at (what `load_gen` and
/// `stream_gen` serve).
const OUTER: u32 = 2;
/// Round / cycle caps: far above what any step needs, so hitting one is a
/// failed operation, not a tuning knob.
const MAX_ROUNDS: u64 = 200_000_000;
const MAX_CYCLES: u64 = 2_000_000_000;

type Result<T> = std::result::Result<T, String>;

fn text<T, E: std::fmt::Display>(r: std::result::Result<T, E>) -> Result<T> {
    r.map_err(|e| e.to_string())
}

// ---- revet-apps ----

pub fn app(name: &str) -> App {
    revet_apps::app(name).unwrap_or_else(|| panic!("no Table III app named {name}"))
}

pub fn all_apps() -> Vec<App> {
    revet_apps::all_apps()
}

pub fn source(app: &App) -> String {
    (app.source)(OUTER)
}

/// The only place the seed goes: the app's own workload generator.
pub fn gen_inputs(app: &App, scale: usize, seed: u64) -> Inputs {
    (app.workload)(scale, seed)
}

pub fn load(app: &App, program: &mut CompiledProgram, inputs: &Inputs) {
    app.load(program, inputs);
}

/// Checks a full DRAM image against the app's hand-written Rust oracle.
/// `App::check_dram` reports a mismatch by panicking; here that is a failed
/// operation, not the end of the run.
pub fn check_dram(app: &App, dram: &[u8], inputs: &Inputs) -> bool {
    std::panic::catch_unwind(|| app.check_dram(dram, inputs)).is_ok()
}

/// The inputs as a server request carries them: DRAM overlays at absolute
/// offsets and the output symbol's window.
pub fn overlays(app: &App, inputs: &Inputs) -> Vec<(u64, Vec<u8>)> {
    let slice = DRAM_BYTES / app.dram_symbols();
    inputs
        .inits
        .iter()
        .map(|(sym, bytes)| ((sym * slice) as u64, bytes.clone()))
        .collect()
}

pub fn window(app: &App, inputs: &Inputs) -> (u64, u64) {
    let slice = DRAM_BYTES / app.dram_symbols();
    (
        (inputs.out_sym * slice) as u64,
        inputs.expected.len() as u64,
    )
}

/// `main` arguments as the machine takes them.
pub fn words(args: &[u32]) -> Vec<Word> {
    args.iter().map(|&a| Word(a)).collect()
}

// ---- revet-core: compile ----

/// The default pipeline (`-O2`) over the apps' 4 MiB DRAM image, pinned so
/// `REVET_OPT_LEVEL` in the environment cannot change what is measured.
pub fn options() -> PassOptions {
    PassOptions {
        dram_bytes: DRAM_BYTES,
        opt_level: 2,
        ..PassOptions::default()
    }
}

pub fn session_new(source: &str, opts: &PassOptions) -> Session {
    Session::new(source, opts.clone())
}

pub fn parse(s: &mut Session) -> Result<()> {
    text(s.parse().map(|_| ()))
}

pub fn lower_mir(s: &mut Session) -> Result<()> {
    text(s.lower_mir().map(|_| ()))
}

pub fn run_passes(s: &mut Session) -> Result<()> {
    text(s.run_passes().map(|_| ()))
}

pub fn to_dataflow(s: &mut Session) -> Result<CompiledProgram> {
    text(s.to_dataflow())
}

/// MIR ops left after the pass pipeline (0 before `run_passes`).
pub fn mir_ops_out(s: &Session) -> usize {
    s.pass_report().map_or(0, |r| r.ops_after())
}

pub fn fingerprint(source: &str, opts: &PassOptions) -> ProgramId {
    ProgramId::of(source, opts)
}

/// What `to_dataflow` does last, on its own.
pub fn plan_build(program: &CompiledProgram) -> ExecPlan {
    ExecPlan::build(&program.graph)
}

/// All four stages in one call, for set-up code that is not being traced.
pub fn compile(source: &str, opts: &PassOptions) -> Result<CompiledProgram> {
    to_dataflow(&mut session_new(source, opts))
}

// ---- revet-core / revet-machine: one-shot execution ----

pub fn instantiate(program: &CompiledProgram) -> ProgramInstance {
    program.instance()
}

pub fn overlay(inst: &mut ProgramInstance, inits: &[(usize, Vec<u8>)]) {
    for (base, bytes) in inits {
        inst.graph.mem.dram[*base..base + bytes.len()].copy_from_slice(bytes);
    }
}

pub fn plan_run(inst: &mut ProgramInstance, args: &[Word]) -> Result<ExecReport> {
    text(inst.run_untimed(args, MAX_ROUNDS))
}

pub fn harvest(inst: ProgramInstance) -> (Vec<TTok>, MemoryState) {
    (inst.sink_tokens(), inst.into_memory())
}

// ---- revet-core: streaming ----

/// What `OpenStream` does: a fresh instance, the request's overlays, then
/// the resumable wrapper.
pub fn stream_open_with(program: &CompiledProgram, inits: &[(usize, Vec<u8>)]) -> StreamInstance {
    let mut inst = instantiate(program);
    overlay(&mut inst, inits);
    StreamInstance::new(inst, StreamExecutor::Planned)
}

pub fn stream_feed(s: &mut StreamInstance, argsets: &[Vec<Word>]) -> Result<usize> {
    text(s.feed(argsets))
}

/// Sink tokens since the last poll, and whether the graph drained.
pub fn stream_poll(s: &mut StreamInstance) -> Result<(Vec<TTok>, bool)> {
    let (tokens, status) = text(s.poll(MAX_ROUNDS))?;
    Ok((tokens, status == RunStatus::Finished))
}

pub fn stream_finish(s: StreamInstance) -> Result<(ExecReport, MemoryState)> {
    let outcome = text(s.finish(MAX_ROUNDS))?;
    Ok((outcome.report, outcome.memory))
}

pub fn stream_resident_bytes(s: &StreamInstance) -> u64 {
    s.resident_bytes()
}

// ---- revet-runtime ----

pub fn batch_job<'p>(
    program: &'p CompiledProgram,
    args: Vec<Word>,
    inits: Arc<[(usize, Vec<u8>)]>,
) -> BatchJob<'p> {
    BatchJob::new(program, args).with_dram_inits(inits)
}

/// One worker, as the benchmark's server is configured.
pub fn batch_run(jobs: &[BatchJob<'_>]) -> BatchReport {
    BatchRunner::new(1).run(jobs)
}

/// What the server's executor does with a finished batch: merge the
/// reports, cut each instance's DRAM window, drop the images.
pub fn execute_reply(report: BatchReport, window: (u64, u64)) -> ExecuteReply {
    let (off, len) = (window.0 as usize, window.1 as usize);
    ExecuteReply {
        merged: wire_report(&report.total()),
        instances: report
            .results
            .iter()
            .map(|r| match r {
                Ok(inst) => InstanceOutcome::Ok {
                    wall_micros: inst.wall.as_micros() as u64,
                    dram: inst.mem.dram[off..off + len].to_vec(),
                },
                Err(e) => InstanceOutcome::Err {
                    message: e.to_string(),
                },
            })
            .collect(),
    }
}

pub fn wire_report(r: &ExecReport) -> WireReport {
    WireReport {
        rounds: r.rounds,
        productive_steps: r.productive_steps,
        steps: r.steps,
        peak_ready: r.peak_ready,
    }
}

pub fn wire_tokens(tokens: &[TTok]) -> Vec<WireTok> {
    tokens.iter().map(WireTok::from_ttok).collect()
}

// ---- revet-serve ----

/// One executor thread, one batch worker: with a single closed-loop client
/// on a two-core box, more would measure the scheduler.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        executor_threads: 1,
        batch_threads: 1,
        ..ServeConfig::default()
    }
}

pub fn server_spawn(cfg: ServeConfig) -> Result<Server> {
    text(Server::spawn(cfg))
}

pub fn connect(server: &Server) -> Result<ServeClient> {
    text(ServeClient::connect(server.local_addr()))
}

pub fn server_status(server: &Server) -> StatusInfo {
    server.status()
}

pub fn server_shutdown(server: Server) {
    server.shutdown();
}

/// Returns whether the server answered from its cache.
pub fn client_compile(
    c: &mut ServeClient,
    source: &str,
    opts: &PassOptions,
) -> Result<(ProgramId, bool)> {
    let out = text(c.compile(source, opts))?;
    Ok((out.program_id, out.cached))
}

pub fn client_execute(c: &mut ServeClient, req: ExecuteRequest) -> Result<ExecuteReply> {
    text(c.execute(req))
}

pub fn client_open(c: &mut ServeClient, req: OpenStreamRequest) -> Result<u64> {
    text(c.open_stream(req))
}

pub fn client_feed(c: &mut ServeClient, session: u64, argsets: Vec<Vec<u32>>) -> Result<u64> {
    text(c.feed(session, argsets))
}

pub fn client_poll(c: &mut ServeClient, session: u64) -> Result<PollReply> {
    text(c.poll(session))
}

pub fn client_close(c: &mut ServeClient, session: u64) -> Result<CloseReply> {
    text(c.close_stream(session))
}

pub fn encode_request(req: &Request) -> Vec<u8> {
    protocol::encode_request(req)
}

pub fn decode_request(body: &[u8]) -> Result<Request> {
    text(protocol::decode_request(body))
}

pub fn encode_response(resp: &Response) -> Vec<u8> {
    protocol::encode_response(resp)
}

pub fn decode_response(body: &[u8]) -> Result<Response> {
    text(protocol::decode_response(body))
}

pub fn cache_new() -> ProgramCache {
    ProgramCache::new(ServeConfig::default().cache_capacity)
}

pub fn cache_get(cache: &ProgramCache, id: ProgramId) -> Option<Arc<CompiledProgram>> {
    cache.get(id)
}

/// The server's `Compile` path: returns the program and whether it was a hit.
pub fn cache_get_or_compile(
    cache: &ProgramCache,
    id: ProgramId,
    source: &str,
    opts: &PassOptions,
) -> Result<(Arc<CompiledProgram>, bool)> {
    text(cache.get_or_compile(id, || Session::new(source, opts.clone()).to_dataflow()))
}

// ---- revet-sim ----

/// The paper's Table II machine with every subsystem modelled (no ideal
/// DRAM, SRAM or network).
pub fn sim_run(program: &mut CompiledProgram, args: &[Word]) -> Result<SimStats> {
    text(
        Simulator::new(RdaConfig::default(), IdealModels::default()).run(program, args, MAX_CYCLES),
    )
}
