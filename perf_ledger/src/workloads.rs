//! The five workloads. README.md says why each exists and which layer it
//! stresses; this file says what one step of each does.
//!
//! Scales are the largest at which every step stays a few milliseconds at
//! most: the floor estimator needs many short samples, not few long ones.

use crate::bench::{Case, Counts, Workload};
use crate::layers::{
    self as L, CompiledProgram, ExecReport, ExecuteReply, ExecuteRequest, InstanceOutcome,
    MemoryState, OpenStreamRequest, PassOptions, PollReply, ProgramCache, ProgramId, Request,
    Response, ServeClient, Server, Session, SimStats, StatusInfo, StreamInstance, TTok, WireReport,
    WireTok, Word,
};
use crate::trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// (app, scale) per step.
pub const COMPILE_COLD_SCALE: usize = 16;
pub const EXEC_CONTROL_APPS: [(&str, usize); 3] =
    [("huff-dec", 4), ("huff-enc", 8), ("kD-tree", 32)];
pub const SERVE_APPS: [(&str, usize); 4] = [
    ("isipv4", 16),
    ("ip2int", 16),
    ("murmur3", 16),
    ("hash-table", 16),
];
pub const SIM_TIMED_APPS: [(&str, usize); 3] = [("murmur3", 16), ("kD-tree", 16), ("huff-enc", 4)];
/// Instances per `Execute` request.
pub const ONESHOT_INSTANCES: usize = 2;

fn cases(picks: &[(&str, usize)], seed: u64) -> Vec<Case> {
    picks
        .iter()
        .map(|&(name, scale)| {
            let app = L::app(name);
            let inputs = L::gen_inputs(&app, scale, seed);
            Case {
                source: L::source(&app),
                args: L::words(&inputs.args),
                app,
                inputs,
            }
        })
        .collect()
}

/// A deterministic digest (`DefaultHasher::new` has fixed keys).
fn digest(parts: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

fn wire_parts(r: &WireReport) -> [u64; 4] {
    [r.rounds, r.productive_steps, r.steps, r.peak_ready]
}

fn token_parts(tokens: &[WireTok]) -> Vec<(u8, &[u32])> {
    tokens
        .iter()
        .map(|t| match t {
            WireTok::Data(words) => (0, &words[..]),
            WireTok::Barrier(level) => (*level, &[][..]),
        })
        .collect()
}

/// The output symbol's bytes in a full DRAM image.
fn out_window<'a>(case: &Case, dram: &'a [u8]) -> &'a [u8] {
    let (off, len) = L::window(&case.app, &case.inputs);
    &dram[off as usize..(off + len) as usize]
}

/// Checks a full image against the oracle.
fn oracle(case: &Case, dram: &[u8]) -> Result<(), String> {
    if L::check_dram(&case.app, dram, &case.inputs) {
        Ok(())
    } else {
        Err(format!("{}: output differs from the oracle", case.app.name))
    }
}

/// Checks a reply's window against the oracle's bytes.
fn oracle_window(case: &Case, window: &[u8]) -> Result<(), String> {
    if window == &case.inputs.expected[..] {
        Ok(())
    } else {
        Err(format!(
            "{}: output window differs from the oracle",
            case.app.name
        ))
    }
}

fn compile_loaded(case: &Case, opts: &PassOptions) -> Result<CompiledProgram, String> {
    let mut program = L::compile(&case.source, opts)?;
    L::load(&case.app, &mut program, &case.inputs);
    Ok(program)
}

/// One instance, start to finish, checked against the oracle.
fn run_once(case: &Case, program: &CompiledProgram) -> Result<(), String> {
    let mut inst = L::instantiate(program);
    L::plan_run(&mut inst, &case.args)?;
    let (_, mem) = L::harvest(inst);
    oracle(case, &mem.dram)
}

/// Simulated vRDA cycles of one instance of `case` — the paper's own
/// performance metric, and deterministic.
pub fn sim_cycles(case: &Case) -> Result<u64, String> {
    let mut program = compile_loaded(case, &L::options())?;
    let stats = L::sim_run(&mut program, &case.args)?;
    oracle(case, &program.graph.mem.dram)?;
    Ok(stats.cycles)
}

fn one_each(cases: &[Case]) -> Vec<(&Case, u64)> {
    cases.iter().map(|c| (c, 1)).collect()
}

// ---------------------------------------------------------------- compile_cold

/// One cold compile per Table III app: the only workload where `lang`,
/// `mir` and `core::lower` do all the work and the executor none.
pub struct CompileCold {
    cases: Vec<Case>,
    opts: PassOptions,
    programs: Vec<CompiledProgram>,
    /// Each step's program, as [`shape`] counts it.
    shapes: Vec<(usize, usize, usize)>,
}

/// What a compile produced, as counts: MIR ops after the pipeline,
/// contexts, links.
fn shape(s: &Session, program: &CompiledProgram) -> (usize, usize, usize) {
    (
        L::mir_ops_out(s),
        program.contexts.len(),
        program.links.len(),
    )
}

impl Workload for CompileCold {
    const EXACT_ALLOCS: bool = true;
    type Prep = ();
    type Out = (ProgramId, Session, CompiledProgram);

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn setup(seed: u64, _t: &mut Tracer) -> Result<Self, String> {
        let picks: Vec<(&str, usize)> = L::all_apps()
            .iter()
            .map(|a| (a.name, COMPILE_COLD_SCALE))
            .collect();
        let cases = cases(&picks, seed);
        let opts = L::options();
        let programs = cases
            .iter()
            .map(|c| compile_loaded(c, &opts))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompileCold {
            shapes: vec![(0, 0, 0); cases.len()],
            cases,
            opts,
            programs,
        })
    }

    fn verify_setup(&mut self) -> Vec<String> {
        self.cases
            .iter()
            .zip(&self.programs)
            .filter_map(|(c, p)| run_once(c, p).err())
            .collect()
    }

    fn prepare(&mut self, _step: usize) -> Result<(), String> {
        Ok(())
    }

    fn run(&mut self, step: usize, (): ()) -> Result<Self::Out, String> {
        let source = &self.cases[step].source;
        let id = L::fingerprint(source, &self.opts);
        let mut s = L::session_new(source, &self.opts);
        L::parse(&mut s)?;
        L::lower_mir(&mut s)?;
        L::run_passes(&mut s)?;
        let program = L::to_dataflow(&mut s)?;
        Ok((id, s, program))
    }

    fn check(&mut self, step: usize, (id, s, program): Self::Out) -> Result<u64, String> {
        self.shapes[step] = shape(&s, &program);
        Ok(digest((id, self.shapes[step])))
    }

    fn replica(&mut self, step: usize, t: &mut Tracer) -> Result<u64, String> {
        let source = &self.cases[step].source;
        let id = t.span("core.fingerprint", || L::fingerprint(source, &self.opts));
        let mut s = L::session_new(source, &self.opts);
        t.span("lang.parse", || L::parse(&mut s))?;
        t.span("lang.lower_mir", || L::lower_mir(&mut s))?;
        t.span("mir.run_passes", || L::run_passes(&mut s))?;
        let lowering = t.begin("core.to_dataflow");
        let program = L::to_dataflow(&mut s);
        t.end(lowering);
        let program = program?;
        t.span_under(lowering, "machine.plan_build", || L::plan_build(&program));
        Ok(digest((id, shape(&s, &program))))
    }

    fn counts(&self, counts: &mut Counts) {
        let sum = |f: fn(&(usize, usize, usize)) -> usize| {
            self.shapes.iter().map(f).sum::<usize>() as f64
        };
        counts.insert("mir.ops_out", sum(|s| s.0));
        counts.insert("core.graph_contexts", sum(|s| s.1));
        counts.insert("core.graph_links", sum(|s| s.2));
    }

    fn sim_cases(&self) -> Vec<(&Case, u64)> {
        one_each(&self.cases)
    }
}

// ---------------------------------------------------------------- exec_control

/// In-process one-shot execution of the control-heavy apps, whose
/// dispatches are half boxed merge/expand/contract nodes.
pub struct ExecControl {
    cases: Vec<Case>,
    programs: Vec<CompiledProgram>,
    reports: Vec<WireReport>,
}

impl ExecControl {
    fn digest(&self, step: usize, report: &ExecReport, sink: &[TTok], mem: &MemoryState) -> u64 {
        digest((
            wire_parts(&L::wire_report(report)),
            sink,
            out_window(&self.cases[step], &mem.dram),
        ))
    }
}

impl Workload for ExecControl {
    const EXACT_ALLOCS: bool = true;
    type Prep = ();
    type Out = (ExecReport, Vec<TTok>, MemoryState);

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn setup(seed: u64, _t: &mut Tracer) -> Result<Self, String> {
        let cases = cases(&EXEC_CONTROL_APPS, seed);
        let opts = L::options();
        let programs = cases
            .iter()
            .map(|c| compile_loaded(c, &opts))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExecControl {
            reports: vec![WireReport::default(); cases.len()],
            cases,
            programs,
        })
    }

    fn prepare(&mut self, _step: usize) -> Result<(), String> {
        Ok(())
    }

    fn run(&mut self, step: usize, (): ()) -> Result<Self::Out, String> {
        let mut inst = L::instantiate(&self.programs[step]);
        let report = L::plan_run(&mut inst, &self.cases[step].args)?;
        let (sink, mem) = L::harvest(inst);
        Ok((report, sink, mem))
    }

    fn check(&mut self, step: usize, (report, sink, mem): Self::Out) -> Result<u64, String> {
        oracle(&self.cases[step], &mem.dram)?;
        self.reports[step] = L::wire_report(&report);
        Ok(self.digest(step, &report, &sink, &mem))
    }

    fn replica(&mut self, step: usize, t: &mut Tracer) -> Result<u64, String> {
        let mut inst = t.span("core.instantiate", || L::instantiate(&self.programs[step]));
        let report = t.span("machine.plan_run", || {
            L::plan_run(&mut inst, &self.cases[step].args)
        })?;
        let (sink, mem) = t.span("core.harvest", || L::harvest(inst));
        Ok(self.digest(step, &report, &sink, &mem))
    }

    fn counts(&self, counts: &mut Counts) {
        exec_counts(counts, self.reports.iter().map(wire_parts));
    }

    fn sim_cases(&self) -> Vec<(&Case, u64)> {
        one_each(&self.cases)
    }
}

/// Per-pass executor counts from each step's `[rounds, productive, steps,
/// peak_ready]`.
fn exec_counts(counts: &mut Counts, per_step: impl Iterator<Item = [u64; 4]>) {
    let (mut rounds, mut productive, mut steps, mut peak) = (0, 0, 0, 0);
    for [r, p, s, k] in per_step {
        rounds += r;
        productive += p;
        steps += s;
        peak = peak.max(k);
    }
    counts.insert("machine.rounds_per_op", rounds as f64);
    counts.insert("machine.dispatches_per_op", steps as f64);
    counts.insert(
        "machine.productive_ratio",
        if steps == 0 {
            1.0
        } else {
            productive as f64 / steps as f64
        },
    );
    counts.insert("machine.peak_ready", peak as f64);
}

// ---------------------------------------------------------------- serve, shared

/// A case as a remote client holds it.
struct RemoteCase {
    case: Case,
    id: ProgramId,
    overlays: Vec<(u64, Vec<u8>)>,
    window: (u64, u64),
}

impl RemoteCase {
    fn execute_request(&self, instances: usize) -> ExecuteRequest {
        ExecuteRequest {
            program_id: self.id,
            argsets: vec![self.case.inputs.args.clone(); instances],
            dram_inits: self.overlays.clone(),
            window: self.window,
        }
    }

    fn local_overlays(&self) -> Vec<(usize, Vec<u8>)> {
        self.overlays
            .iter()
            .map(|(off, bytes)| (*off as usize, bytes.clone()))
            .collect()
    }
}

/// A self-booted server and the benchmark's one connection to it.
struct Remote {
    /// `None` once shut down.
    server: Option<Server>,
    client: ServeClient,
    status: Option<StatusInfo>,
}

impl Remote {
    /// Boots a server, connects, and compiles every case (all misses).
    fn boot(seed: u64, opts: &PassOptions) -> Result<(Remote, Vec<RemoteCase>), String> {
        let cases = cases(&SERVE_APPS, seed);
        let server = L::server_spawn(L::serve_config())?;
        let mut client = L::connect(&server)?;
        let mut remote_cases = Vec::with_capacity(cases.len());
        for case in cases {
            let (id, cached) = L::client_compile(&mut client, &case.source, opts)?;
            if cached {
                return Err(format!(
                    "{}: set-up compile hit a cold cache",
                    case.app.name
                ));
            }
            remote_cases.push(RemoteCase {
                overlays: L::overlays(&case.app, &case.inputs),
                window: L::window(&case.app, &case.inputs),
                id,
                case,
            });
        }
        let remote = Remote {
            server: Some(server),
            client,
            status: None,
        };
        Ok((remote, remote_cases))
    }

    /// Takes the final counters and drains the server.
    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            self.status = Some(L::server_status(&server));
            L::server_shutdown(server);
        }
    }

    fn counts(&self, counts: &mut Counts) {
        if let Some(s) = &self.status {
            counts.insert("serve.cache_hits", s.cache_hits as f64);
            counts.insert("serve.cache_misses", s.cache_misses as f64);
            counts.insert("serve.sessions_evicted", s.evicted_sessions as f64);
        }
    }
}

/// Both wire directions of one in-process request, spanned: encode and
/// decode the request, let `handle` answer it, encode and decode the
/// response. Adds the frame sizes to `bytes`.
fn in_process<T>(
    t: &mut Tracer,
    bytes: &mut (usize, usize),
    request: &Request,
    handle: impl FnOnce(&mut Tracer, Request) -> Result<(Response, T), String>,
) -> Result<(Response, T), String> {
    let body = t.span("serve.encode_request", || L::encode_request(request));
    bytes.0 += body.len();
    let decoded = t.span("serve.decode_request", || L::decode_request(&body))?;
    let (response, extra) = handle(t, decoded)?;
    let body = t.span("serve.encode_response", || L::encode_response(&response));
    bytes.1 += body.len();
    let response = t.span("serve.decode_response", || L::decode_response(&body))?;
    Ok((response, extra))
}

fn reply_digest(reply: &ExecuteReply) -> Result<u64, String> {
    let windows = reply
        .instances
        .iter()
        .map(|i| match i {
            InstanceOutcome::Ok { dram, .. } => Ok(&dram[..]),
            InstanceOutcome::Err { message } => Err(format!("instance failed: {message}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(digest((wire_parts(&reply.merged), windows)))
}

// --------------------------------------------------------------- serve_oneshot

/// Loopback `Compile` (hit) + `Execute` of small fused-segment apps: the
/// instantiate-dominated use of the executor, with the wire codec, cache,
/// admission queue and batch runner on the blocking path.
pub struct ServeOneshot {
    cases: Vec<RemoteCase>,
    opts: PassOptions,
    remote: Remote,
    /// The replica's own cache, holding the same programs (traced runs).
    cache: Option<ProgramCache>,
    merged: Vec<WireReport>,
    /// (request, response) bytes of each step's frames.
    frame_bytes: Vec<(usize, usize)>,
}

impl Workload for ServeOneshot {
    const EXACT_ALLOCS: bool = false;
    type Prep = ExecuteRequest;
    type Out = (bool, ExecuteReply);

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let opts = L::options();
        let (remote, cases) = Remote::boot(seed, &opts)?;
        let cache = if t.is_enabled() {
            let cache = L::cache_new();
            for rc in &cases {
                L::cache_get_or_compile(&cache, rc.id, &rc.case.source, &opts)?;
            }
            Some(cache)
        } else {
            None
        };
        Ok(ServeOneshot {
            merged: vec![WireReport::default(); cases.len()],
            frame_bytes: vec![(0, 0); cases.len()],
            cases,
            opts,
            remote,
            cache,
        })
    }

    fn prepare(&mut self, step: usize) -> Result<ExecuteRequest, String> {
        Ok(self.cases[step].execute_request(ONESHOT_INSTANCES))
    }

    fn run(&mut self, step: usize, req: ExecuteRequest) -> Result<Self::Out, String> {
        let client = &mut self.remote.client;
        let (_, cached) = L::client_compile(client, &self.cases[step].case.source, &self.opts)?;
        let reply = L::client_execute(client, req)?;
        Ok((cached, reply))
    }

    fn check(&mut self, step: usize, (cached, reply): Self::Out) -> Result<u64, String> {
        let rc = &self.cases[step];
        if !cached {
            return Err(format!("{}: compile missed a warm cache", rc.case.app.name));
        }
        if reply.instances.len() != ONESHOT_INSTANCES {
            return Err(format!("{} instances came back", reply.instances.len()));
        }
        let d = reply_digest(&reply)?;
        for outcome in &reply.instances {
            if let InstanceOutcome::Ok { dram, .. } = outcome {
                oracle_window(&rc.case, dram)?;
            }
        }
        self.merged[step] = reply.merged;
        Ok(d)
    }

    fn replica(&mut self, step: usize, t: &mut Tracer) -> Result<u64, String> {
        let rc = &self.cases[step];
        let cache = self
            .cache
            .as_ref()
            .ok_or("traced set-up builds the replica's cache")?;
        let client = &mut self.remote.client;
        let mut bytes = (0, 0);

        // The real round trips again, one span each.
        t.span("serve.compile_hit_rt", || {
            L::client_compile(client, &rc.case.source, &self.opts)
        })?;
        let req = rc.execute_request(ONESHOT_INSTANCES);
        t.span("serve.execute_rt", || L::client_execute(client, req))?;

        // What the server does for them, in process.
        let compile = Request::Compile {
            source: rc.case.source.clone(),
            options: self.opts.clone(),
        };
        in_process(t, &mut bytes, &compile, |t, req| {
            let Request::Compile { source, options } = req else {
                return Err("Compile decoded as another request".into());
            };
            let id = t.span("core.fingerprint", || L::fingerprint(&source, &options));
            let (_, cached) = t.span("serve.cache_hit", || {
                L::cache_get_or_compile(cache, id, &source, &options)
            })?;
            let response = Response::Compiled {
                program_id: id,
                cached,
                compile_micros: 0,
            };
            Ok((response, ()))
        })?;

        let execute = Request::Execute(rc.execute_request(ONESHOT_INSTANCES));
        let (response, by_hand) = in_process(t, &mut bytes, &execute, |t, req| {
            let Request::Execute(req) = req else {
                return Err("Execute decoded as another request".into());
            };
            let program = t
                .span("serve.cache_hit", || L::cache_get(cache, req.program_id))
                .ok_or("the replica's cache lost a program")?;
            let inits: Arc<[(usize, Vec<u8>)]> = rc.local_overlays().into();
            let argsets: Vec<Vec<Word>> = req.argsets.iter().map(|a| L::words(a)).collect();
            let jobs: Vec<_> = argsets
                .iter()
                .map(|a| L::batch_job(&program, a.clone(), Arc::clone(&inits)))
                .collect();
            let batch = t.begin("runtime.batch_run");
            let reply = L::execute_reply(L::batch_run(&jobs), req.window);
            t.end(batch);

            // The same instances by hand, attributed to the batch.
            let (off, len) = (req.window.0 as usize, req.window.1 as usize);
            let mut by_hand = Vec::new();
            for args in &argsets {
                let mut inst = t.span_under(batch, "core.instantiate", || L::instantiate(&program));
                t.span_under(batch, "core.overlay", || L::overlay(&mut inst, &inits));
                t.span_under(batch, "machine.plan_run", || L::plan_run(&mut inst, args))?;
                by_hand.push(t.span_under(batch, "core.harvest", || {
                    let (_, mem) = L::harvest(inst);
                    mem.dram[off..off + len].to_vec()
                }));
            }
            Ok((Response::Executed(reply), by_hand))
        })?;
        self.frame_bytes[step] = bytes;

        let Response::Executed(reply) = response else {
            return Err("Executed decoded as another response".into());
        };
        for (outcome, window) in reply.instances.iter().zip(&by_hand) {
            if !matches!(outcome, InstanceOutcome::Ok { dram, .. } if dram == window) {
                return Err("the batch runner and the by-hand instance disagree".into());
            }
        }
        reply_digest(&reply)
    }

    fn teardown(&mut self, _measured: bool, _t: &mut Tracer) -> Vec<String> {
        self.remote.shutdown();
        Vec::new()
    }

    fn counts(&self, counts: &mut Counts) {
        exec_counts(counts, self.merged.iter().map(wire_parts));
        self.remote.counts(counts);
        frame_counts(counts, &self.frame_bytes);
    }

    fn sim_cases(&self) -> Vec<(&Case, u64)> {
        self.cases
            .iter()
            .map(|rc| (&rc.case, ONESHOT_INSTANCES as u64))
            .collect()
    }
}

fn frame_counts(counts: &mut Counts, frame_bytes: &[(usize, usize)]) {
    counts.insert(
        "serve.request_bytes",
        frame_bytes.iter().map(|b| b.0).sum::<usize>() as f64,
    );
    counts.insert(
        "serve.response_bytes",
        frame_bytes.iter().map(|b| b.1).sum::<usize>() as f64,
    );
}

// ---------------------------------------------------------------- serve_stream

/// Loopback `Feed` + `Poll` on four resident sessions: the same executor
/// and serve layer used resumably — no per-chunk instantiate, but scheduler
/// scratch rebuilt on every poll.
pub struct ServeStream {
    cases: Vec<RemoteCase>,
    remote: Remote,
    sessions: Vec<u64>,
    /// Windows of a one-shot `Execute` of each case, for the close check.
    oneshot: Vec<Vec<u8>>,
    /// Each session's resident bytes at its last poll. A session's sink
    /// keeps every token it ever collected, so this grows; the step's digest
    /// holds the growth, which must be the same on every pass.
    resident: Vec<u64>,
    /// The same for the replica's streams.
    local_resident: Vec<u64>,
    /// Resident bytes each session gained over its last measured step.
    resident_growth: Vec<u64>,
    /// Argsets fed to each session.
    fed: Vec<u64>,
    /// The replica's own resident instances (traced runs).
    local: Vec<Option<StreamInstance>>,
    closed: Vec<WireReport>,
    frame_bytes: Vec<(usize, usize)>,
}

impl ServeStream {
    /// Digest of a step's replies. `growth` is what the stream's resident
    /// bytes gained since its previous poll.
    fn poll_digest(accepted: u64, poll: &PollReply, growth: u64) -> u64 {
        digest((accepted, token_parts(&poll.tokens), poll.finished, growth))
    }
}

/// Moves a stream's last-seen resident bytes to `now`; returns the growth.
fn advance(resident: &mut u64, now: u64) -> u64 {
    now.wrapping_sub(std::mem::replace(resident, now))
}

impl Workload for ServeStream {
    const EXACT_ALLOCS: bool = false;
    type Prep = Vec<Vec<u32>>;
    type Out = (u64, PollReply);

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let opts = L::options();
        let (mut remote, cases) = Remote::boot(seed, &opts)?;
        let mut sessions = Vec::with_capacity(cases.len());
        let mut local = Vec::with_capacity(cases.len());
        for rc in &cases {
            let open = OpenStreamRequest {
                program_id: rc.id,
                dram_inits: rc.overlays.clone(),
                window: rc.window,
            };
            sessions.push(t.span("serve.open_rt", || L::client_open(&mut remote.client, open))?);
            local.push(if t.is_enabled() {
                let program = L::compile(&rc.case.source, &opts)?;
                let inits = rc.local_overlays();
                Some(t.span("core.stream_open", || L::stream_open_with(&program, &inits)))
            } else {
                None
            });
        }
        let n = cases.len();
        Ok(ServeStream {
            cases,
            remote,
            sessions,
            oneshot: Vec::new(),
            resident: vec![0; n],
            local_resident: vec![0; n],
            resident_growth: vec![0; n],
            fed: vec![0; n],
            local,
            closed: vec![WireReport::default(); n],
            frame_bytes: vec![(0, 0); n],
        })
    }

    fn verify_setup(&mut self) -> Vec<String> {
        let mut failed = Vec::new();
        for rc in &self.cases {
            let window = L::client_execute(&mut self.remote.client, rc.execute_request(1))
                .and_then(|reply| match reply.instances.into_iter().next() {
                    Some(InstanceOutcome::Ok { dram, .. }) => Ok(dram),
                    _ => Err(format!("{}: one-shot reference failed", rc.case.app.name)),
                })
                .and_then(|dram| oracle_window(&rc.case, &dram).map(|()| dram));
            match window {
                Ok(dram) => self.oneshot.push(dram),
                Err(e) => {
                    self.oneshot.push(Vec::new());
                    failed.push(e);
                }
            }
        }
        failed
    }

    fn prepare(&mut self, step: usize) -> Result<Vec<Vec<u32>>, String> {
        Ok(vec![self.cases[step].case.inputs.args.clone()])
    }

    fn run(&mut self, step: usize, argsets: Vec<Vec<u32>>) -> Result<Self::Out, String> {
        let (client, session) = (&mut self.remote.client, self.sessions[step]);
        let accepted = L::client_feed(client, session, argsets)?;
        // One poll runs the session to quiescence: the reply is the argset's
        // output, and `check` fails the step if anything is still in flight.
        let poll = L::client_poll(client, session)?;
        Ok((accepted, poll))
    }

    fn check(&mut self, step: usize, (accepted, poll): Self::Out) -> Result<u64, String> {
        self.fed[step] += accepted;
        if accepted != 1 {
            return Err(format!("the session accepted {accepted} argsets, not 1"));
        }
        if !poll.finished {
            return Err("tokens left in flight after the poll".into());
        }
        let growth = advance(&mut self.resident[step], poll.resident_bytes);
        self.resident_growth[step] = growth;
        Ok(Self::poll_digest(accepted, &poll, growth))
    }

    fn replica(&mut self, step: usize, t: &mut Tracer) -> Result<u64, String> {
        let rc = &self.cases[step];
        let (client, session) = (&mut self.remote.client, self.sessions[step]);
        let stream = self.local[step]
            .as_mut()
            .ok_or("traced set-up opens the replica's streams")?;
        let argsets = vec![rc.case.inputs.args.clone()];
        let mut bytes = (0, 0);

        // The real round trips again, one span each.
        self.fed[step] += t.span("serve.feed_rt", || {
            L::client_feed(client, session, argsets.clone())
        })?;
        self.resident[step] = t
            .span("serve.poll_rt", || L::client_poll(client, session))?
            .resident_bytes;

        // What the server does for them, in process.
        let feed = Request::Feed { session, argsets };
        let (response, ()) = in_process(t, &mut bytes, &feed, |t, req| {
            let Request::Feed { argsets, .. } = req else {
                return Err("Feed decoded as another request".into());
            };
            let accepted = t.span("core.stream_feed", || {
                let sets: Vec<Vec<Word>> = argsets.iter().map(|a| L::words(a)).collect();
                L::stream_feed(stream, &sets)
            })?;
            Ok((
                Response::Fed {
                    accepted: accepted as u64,
                },
                (),
            ))
        })?;
        let Response::Fed { accepted } = response else {
            return Err("Fed decoded as another response".into());
        };
        let (response, ()) = in_process(t, &mut bytes, &Request::Poll { session }, |t, _| {
            let (tokens, finished) = t.span("core.stream_poll", || L::stream_poll(stream))?;
            let reply = PollReply {
                tokens: L::wire_tokens(&tokens),
                finished,
                resident_bytes: L::stream_resident_bytes(stream),
            };
            Ok((Response::Polled(reply), ()))
        })?;
        self.frame_bytes[step] = bytes;
        let Response::Polled(poll) = response else {
            return Err("Polled decoded as another response".into());
        };
        let growth = advance(&mut self.local_resident[step], poll.resident_bytes);
        Ok(Self::poll_digest(accepted, &poll, growth))
    }

    fn teardown(&mut self, measured: bool, t: &mut Tracer) -> Vec<String> {
        let mut failed = Vec::new();
        for (i, rc) in self.cases.iter().enumerate() {
            let name = rc.case.app.name;
            match t.span("serve.close_rt", || {
                L::client_close(&mut self.remote.client, self.sessions[i])
            }) {
                Ok(close) => {
                    self.closed[i] = close.merged;
                    if measured {
                        if let Err(e) = oracle_window(&rc.case, &close.dram) {
                            failed.push(e);
                        }
                        if self.oneshot.get(i) != Some(&close.dram) {
                            failed.push(format!(
                                "{name}: session window differs from one-shot Execute"
                            ));
                        }
                    }
                }
                Err(e) => failed.push(format!("{name}: close: {e}")),
            }
            if let Some(stream) = self.local[i].take() {
                match t.span("core.stream_finish", || L::stream_finish(stream)) {
                    Ok((_, mem)) if measured => failed.extend(oracle(&rc.case, &mem.dram).err()),
                    Ok(_) => {}
                    Err(e) => failed.push(format!("{name}: replica finish: {e}")),
                }
            }
        }
        self.remote.shutdown();
        failed
    }

    fn counts(&self, counts: &mut Counts) {
        // Sessions report merged totals at close; per op is per argset fed.
        let per_argset = self.closed.iter().zip(&self.fed).map(|(r, &fed)| {
            let fed = fed.max(1);
            [
                r.rounds / fed,
                r.productive_steps / fed,
                r.steps / fed,
                r.peak_ready,
            ]
        });
        exec_counts(counts, per_argset);
        self.remote.counts(counts);
        frame_counts(counts, &self.frame_bytes);
        counts.insert(
            "core.stream_resident_growth",
            self.resident_growth.iter().sum::<u64>() as f64,
        );
    }

    fn sim_cases(&self) -> Vec<(&Case, u64)> {
        self.cases.iter().map(|rc| (&rc.case, 1)).collect()
    }
}

// ------------------------------------------------------------------- sim_timed

/// The cycle-level simulator on a fresh program per step: the only
/// workload that times the `sim` scheduler, and the one whose
/// `sim_cycles_per_op` every pass re-derives.
pub struct SimTimed {
    cases: Vec<Case>,
    /// Memoised through `run_passes`; `to_dataflow` re-lowers from here.
    sessions: Vec<Session>,
    stats: Vec<SimStats>,
}

impl SimTimed {
    fn digest(&self, step: usize, stats: &SimStats, program: &CompiledProgram) -> u64 {
        digest((
            stats.cycles,
            stats.dram_read_bytes,
            stats.dram_written_bytes,
            stats.peak_busy_nodes,
            stats.skipped_idle_steps,
            out_window(&self.cases[step], &program.graph.mem.dram),
        ))
    }
}

impl Workload for SimTimed {
    const EXACT_ALLOCS: bool = true;
    /// `Simulator::run` takes the program by `&mut` and consumes its state,
    /// so every step needs a fresh one.
    type Prep = CompiledProgram;
    type Out = (SimStats, CompiledProgram);

    fn steps(&self) -> usize {
        self.cases.len()
    }

    fn setup(seed: u64, _t: &mut Tracer) -> Result<Self, String> {
        let cases = cases(&SIM_TIMED_APPS, seed);
        let opts = L::options();
        let mut sessions = Vec::with_capacity(cases.len());
        for case in &cases {
            let mut s = L::session_new(&case.source, &opts);
            L::run_passes(&mut s)?;
            sessions.push(s);
        }
        let mut w = SimTimed {
            stats: vec![SimStats::default(); cases.len()],
            cases,
            sessions,
        };
        // A set-up a user could simulate from: one loaded program per case.
        for step in 0..w.steps() {
            w.prepare(step)?;
        }
        Ok(w)
    }

    fn prepare(&mut self, step: usize) -> Result<CompiledProgram, String> {
        let mut program = L::to_dataflow(&mut self.sessions[step])?;
        L::load(
            &self.cases[step].app,
            &mut program,
            &self.cases[step].inputs,
        );
        Ok(program)
    }

    fn run(&mut self, step: usize, mut program: CompiledProgram) -> Result<Self::Out, String> {
        let stats = L::sim_run(&mut program, &self.cases[step].args)?;
        Ok((stats, program))
    }

    fn check(&mut self, step: usize, (stats, program): Self::Out) -> Result<u64, String> {
        oracle(&self.cases[step], &program.graph.mem.dram)?;
        let d = self.digest(step, &stats, &program);
        self.stats[step] = stats;
        Ok(d)
    }

    fn replica(&mut self, step: usize, t: &mut Tracer) -> Result<u64, String> {
        let mut program = self.prepare(step)?;
        let stats = t.span("sim.run", || {
            L::sim_run(&mut program, &self.cases[step].args)
        })?;
        Ok(self.digest(step, &stats, &program))
    }

    fn counts(&self, counts: &mut Counts) {
        let sum = |f: fn(&SimStats) -> u64| self.stats.iter().map(f).sum::<u64>() as f64;
        let slots: u64 = self
            .stats
            .iter()
            .map(|s| s.cycles * s.busy_cycles.len() as u64)
            .sum();
        counts.insert("sim.cycles", sum(|s| s.cycles));
        counts.insert("sim.dram_read_bytes", sum(|s| s.dram_read_bytes));
        counts.insert("sim.dram_written_bytes", sum(|s| s.dram_written_bytes));
        counts.insert(
            "sim.peak_busy_nodes",
            self.stats
                .iter()
                .map(|s| s.peak_busy_nodes)
                .max()
                .unwrap_or(0) as f64,
        );
        counts.insert(
            "sim.skipped_idle_ratio",
            if slots == 0 {
                0.0
            } else {
                sum(|s| s.skipped_idle_steps) / slots as f64
            },
        );
    }

    fn sim_cases(&self) -> Vec<(&Case, u64)> {
        one_each(&self.cases)
    }
}
