//! A deterministic discrete-event executor for resource-constrained task
//! graphs.
//!
//! One training iteration compiles into a DAG of tasks (kernels, gathers,
//! link transfers, parameter-server work), each optionally bound to a
//! resource (a GPU, the host CPU complex, a PCIe lane, the NIC). The
//! engine schedules tasks as their dependencies complete and their resources
//! free up, yielding the iteration makespan and per-resource busy time —
//! which is exactly what throughput and utilization figures need.
//!
//! Scheduling is FIFO per resource with deterministic tie-breaking, so a
//! given graph always produces the same schedule.

use recsim_hw::units::Duration;
use recsim_trace::{CriticalPathReport, ScheduledTask, TaskCategory, Trace, TraceRecorder};
use recsim_verify::{Code, Diagnostic, Validate, ValidationError};
use std::collections::BinaryHeap;

/// Identifies a resource in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Identifies a task in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

#[derive(Debug, Clone)]
struct Resource {
    name: String,
    capacity: usize,
}

#[derive(Debug, Clone)]
struct Task {
    name: String,
    category: TaskCategory,
    duration: Duration,
    resource: Option<ResourceId>,
    deps: Vec<TaskId>,
}

/// A task graph under construction.
///
/// # Example
///
/// ```
/// use recsim_sim::des::TaskGraph;
/// use recsim_hw::units::Duration;
///
/// let mut g = TaskGraph::new();
/// let gpu = g.add_resource("gpu", 1);
/// let a = g.add_task("kernel_a", Duration::from_millis(1.0), Some(gpu), &[]);
/// let b = g.add_task("kernel_b", Duration::from_millis(2.0), Some(gpu), &[a]);
/// let _ = b;
/// let schedule = g.simulate().expect("valid graph");
/// assert!((schedule.makespan().as_millis() - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    resources: Vec<Resource>,
    tasks: Vec<Task>,
    /// Structural problems recorded by the infallible builder methods;
    /// surfaced by [`Validate::validate`] and rejected by [`TaskGraph::simulate`].
    violations: Vec<Diagnostic>,
}

/// The result of simulating a [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct Schedule {
    makespan: Duration,
    start: Vec<Duration>,
    finish: Vec<Duration>,
    busy: Vec<Duration>,
    resource_names: Vec<String>,
    resource_capacity: Vec<usize>,
    task_names: Vec<String>,
    task_category: Vec<TaskCategory>,
    task_resource: Vec<Option<usize>>,
    task_deps: Vec<Vec<usize>>,
}

/// Completion event in the engine's min-heap: (time, seq, task).
#[derive(Debug, PartialEq)]
struct Event(f64, u64, usize);
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for min-heap; total_cmp keeps the ordering total
        // even if a task duration degenerates to NaN.
        other
            .0
            .total_cmp(&self.0)
            .then(other.1.cmp(&self.1))
            .then(other.2.cmp(&self.2))
    }
}

/// A deterministic rewrite of task durations applied as a graph executes —
/// the seam `recsim-fault` uses to model stragglers and degraded links
/// without rebuilding the iteration graph.
///
/// The engine calls [`Perturbation::perturbed_duration`] exactly once per
/// task, *before* the event loop starts, so a perturbed duration may depend
/// on the task's resource binding and category but never on simulated time
/// or scheduling order. That restriction is what keeps perturbed runs as
/// deterministic as unperturbed ones: the same graph and perturbation always
/// produce the same schedule, on any thread of any sweep.
pub trait Perturbation {
    /// The effective duration of a task given its resource binding
    /// (`None` for unbound tasks), attribution category, and nominal
    /// duration. Implementations must return a non-negative, finite
    /// duration; returning `base` leaves the task untouched.
    fn perturbed_duration(
        &self,
        resource: Option<&str>,
        category: TaskCategory,
        base: Duration,
    ) -> Duration;
}

/// The identity [`Perturbation`]: every task keeps its nominal duration.
/// [`TaskGraph::simulate`] is [`TaskGraph::simulate_with`] under
/// `NoPerturbation`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPerturbation;

impl Perturbation for NoPerturbation {
    fn perturbed_duration(
        &self,
        _resource: Option<&str>,
        _category: TaskCategory,
        base: Duration,
    ) -> Duration {
        base
    }
}

/// Reusable arena for the engine's per-run state.
///
/// Every simulation needs an event heap, per-resource FIFO queues, an
/// indegree vector, a CSR adjacency of dependents and a handful of per-task
/// flag vectors. A sweep simulates thousands of graphs back-to-back, so
/// allocating those afresh per call is pure hot-path waste:
/// [`TaskGraph::simulate_with`] borrows a `SimScratch` instead and only ever
/// grows its buffers. Reuse is purely an allocation optimization — a run
/// never observes a previous run's state (everything is reset on entry), so
/// `simulate()` and `simulate_with()` produce identical schedules.
///
/// A scratch is not shared between threads; in a parallel sweep each worker
/// owns one (e.g. one per `recsim_pool::par_map` item, or one per simulator
/// `run()` call).
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Unsatisfied dependency count per task.
    remaining_deps: Vec<usize>,
    /// CSR row offsets into `dep_targets`: the dependents of task `i` are
    /// `dep_targets[dep_offsets[i]..dep_offsets[i + 1]]`.
    dep_offsets: Vec<usize>,
    /// CSR adjacency: all dependent-task ids, grouped by dependency.
    dep_targets: Vec<usize>,
    /// Fill cursor per task while building the CSR rows.
    dep_cursor: Vec<usize>,
    /// Occupied slots per resource.
    in_use: Vec<usize>,
    /// FIFO wait queue per resource.
    queues: Vec<std::collections::VecDeque<usize>>,
    /// Pending completion events.
    heap: BinaryHeap<Event>,
    /// Whether each task has started / completed.
    started: Vec<bool>,
    done: Vec<bool>,
    /// Effective per-task durations for this run (nominal or perturbed).
    durations: Vec<Duration>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all state and sizes every buffer for a graph with `n_tasks`
    /// tasks and `n_resources` resources, keeping existing capacity.
    fn reset(&mut self, n_tasks: usize, n_resources: usize) {
        self.remaining_deps.clear();
        self.remaining_deps.resize(n_tasks, 0);
        self.dep_offsets.clear();
        self.dep_offsets.resize(n_tasks + 1, 0);
        self.dep_targets.clear();
        self.dep_cursor.clear();
        self.in_use.clear();
        self.in_use.resize(n_resources, 0);
        if self.queues.len() < n_resources {
            self.queues
                .resize_with(n_resources, std::collections::VecDeque::new);
        }
        for queue in &mut self.queues {
            queue.clear();
        }
        self.heap.clear();
        self.started.clear();
        self.started.resize(n_tasks, false);
        self.done.clear();
        self.done.resize(n_tasks, false);
        self.durations.clear();
    }
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with `capacity` concurrent slots, rejecting a
    /// zero capacity with an [`Code::ZeroCapacityResource`] diagnostic
    /// (RV027) instead of registering anything.
    pub fn try_add_resource(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
    ) -> Result<ResourceId, Diagnostic> {
        let name = name.into();
        if capacity == 0 {
            return Err(Diagnostic::error(
                Code::ZeroCapacityResource,
                format!("TaskGraph.resource({name})"),
                "resource capacity must be positive",
            ));
        }
        self.resources.push(Resource { name, capacity });
        Ok(ResourceId(self.resources.len() - 1))
    }

    /// Registers a resource with `capacity` concurrent slots.
    ///
    /// A zero `capacity` is recorded as a violation (RV027) that makes
    /// [`TaskGraph::simulate`] fail; the resource is still registered (with
    /// a single slot, so later ids stay aligned) and a usable id returned.
    /// Builders that want the error at the call site use
    /// [`TaskGraph::try_add_resource`].
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: usize) -> ResourceId {
        let name = name.into();
        match self.try_add_resource(name.clone(), capacity) {
            Ok(id) => id,
            Err(violation) => {
                self.violations.push(violation);
                self.resources.push(Resource { name, capacity: 1 });
                ResourceId(self.resources.len() - 1)
            }
        }
    }

    /// [`TaskGraph::try_add_task_in`] with [`TaskCategory::Other`] — for
    /// generic graphs built outside the simulators, where attribution does
    /// not apply. Simulator builders use the categorized variant (lint
    /// RV011 enforces this).
    pub fn try_add_task(
        &mut self,
        name: impl Into<String>,
        duration: Duration,
        resource: Option<ResourceId>,
        deps: &[TaskId],
    ) -> Result<TaskId, Diagnostic> {
        self.try_add_task_in(TaskCategory::Other, name, duration, resource, deps)
    }

    /// Adds a task with an attribution category, a fixed duration, an
    /// optional resource binding, and dependencies that must finish before
    /// it starts, rejecting an unknown resource
    /// ([`Code::UnknownTaskResource`], RV025) or a dependency created after
    /// its dependent ([`Code::DependencyCycle`], RV026 — insertion order is
    /// the builder's acyclicity proof) without adding anything.
    pub fn try_add_task_in(
        &mut self,
        category: TaskCategory,
        name: impl Into<String>,
        duration: Duration,
        resource: Option<ResourceId>,
        deps: &[TaskId],
    ) -> Result<TaskId, Diagnostic> {
        let name = name.into();
        if let Some(r) = resource {
            if r.0 >= self.resources.len() {
                return Err(Diagnostic::error(
                    Code::UnknownTaskResource,
                    format!("TaskGraph.task({name})"),
                    format!("bound to unknown resource #{}", r.0),
                ));
            }
        }
        for d in deps {
            if d.0 >= self.tasks.len() {
                return Err(Diagnostic::error(
                    Code::DependencyCycle,
                    format!("TaskGraph.task({name})"),
                    format!(
                        "dependency #{} does not exist yet (dependencies must be \
                         created before dependents)",
                        d.0
                    ),
                ));
            }
        }
        self.tasks.push(Task {
            name,
            category,
            duration,
            resource,
            deps: deps.to_vec(),
        });
        Ok(TaskId(self.tasks.len() - 1))
    }

    /// [`TaskGraph::add_task_in`] with [`TaskCategory::Other`] — for generic
    /// graphs built outside the simulators. Simulator builders use the
    /// categorized variant (lint RV011 enforces this).
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        duration: Duration,
        resource: Option<ResourceId>,
        deps: &[TaskId],
    ) -> TaskId {
        self.add_task_in(TaskCategory::Other, name, duration, resource, deps)
    }

    /// Adds a task with an attribution category, a fixed duration, an
    /// optional resource binding, and dependencies that must finish before
    /// it starts.
    ///
    /// An unknown resource or dependency id is recorded as a violation
    /// (RV025/RV026) that makes [`TaskGraph::simulate`] fail; the task is
    /// still added (with the offending references dropped, so later ids stay
    /// aligned) and a usable id returned. Builders that want the error at
    /// the call site use [`TaskGraph::try_add_task_in`].
    pub fn add_task_in(
        &mut self,
        category: TaskCategory,
        name: impl Into<String>,
        duration: Duration,
        resource: Option<ResourceId>,
        deps: &[TaskId],
    ) -> TaskId {
        let name = name.into();
        match self.try_add_task_in(category, name.clone(), duration, resource, deps) {
            Ok(id) => id,
            Err(violation) => {
                self.violations.push(violation);
                let resource = resource.filter(|r| r.0 < self.resources.len());
                let deps = deps
                    .iter()
                    .copied()
                    .filter(|d| d.0 < self.tasks.len())
                    .collect();
                self.tasks.push(Task {
                    name,
                    category,
                    duration,
                    resource,
                    deps,
                });
                TaskId(self.tasks.len() - 1)
            }
        }
    }

    /// Adds an extra dependency edge between two existing tasks.
    ///
    /// Unlike the deps passed to [`TaskGraph::add_task`] — whose insertion
    /// order proves acyclicity — a late edge can close a cycle. The cycle is
    /// not checked here; [`TaskGraph::simulate`] rejects cyclic graphs with
    /// RV026. An edge referencing a task outside the graph is recorded as a
    /// violation instead of being added.
    pub fn add_dependency(&mut self, task: TaskId, dep: TaskId) {
        if task.0 >= self.tasks.len() || dep.0 >= self.tasks.len() {
            self.violations.push(Diagnostic::error(
                Code::DependencyCycle,
                format!("TaskGraph.edge({} <- {})", task.0, dep.0),
                "dependency edge references a task outside the graph",
            ));
            return;
        }
        self.tasks[task.0].deps.push(dep);
    }

    /// A zero-duration joining task depending on all of `deps` — a barrier.
    /// Attributed to [`TaskCategory::Framework`] (it never carries time).
    pub fn add_barrier(&mut self, name: impl Into<String>, deps: &[TaskId]) -> TaskId {
        self.add_task_in(TaskCategory::Framework, name, Duration::ZERO, None, deps)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Runs the discrete-event simulation and returns the schedule — the
    /// one-shot form of [`TaskGraph::simulate_with`] (fresh scratch, nominal
    /// durations).
    pub fn simulate(&self) -> Result<Schedule, ValidationError> {
        self.simulate_with(&mut SimScratch::new(), &NoPerturbation)
    }

    /// Digest of the graph structure, recorded as stage `sim/taskgraph`
    /// when the determinism sanitizer is armed — a divergence here means
    /// iteration *compilation* (not the event loop) went nondeterministic.
    fn state_digest(&self) -> u64 {
        let mut d = recsim_detsan::StateDigest::new();
        d.write_usize(self.resources.len());
        for r in &self.resources {
            d.write_str(&r.name);
            d.write_usize(r.capacity);
        }
        d.write_usize(self.tasks.len());
        for t in &self.tasks {
            d.write_str(&t.name);
            d.write_str(t.category.label());
            d.write_f64(t.duration.as_secs());
            match t.resource {
                Some(ResourceId(r)) => {
                    d.write_bool(true);
                    d.write_usize(r);
                }
                None => d.write_bool(false),
            }
            d.write_usize(t.deps.len());
            for &TaskId(dep) in &t.deps {
                d.write_usize(dep);
            }
        }
        d.finish()
    }

    /// Runs the discrete-event simulation with every task duration rewritten
    /// through `perturbation` before the event loop starts, borrowing a
    /// caller-owned [`SimScratch`] so back-to-back simulations reuse the
    /// engine's working buffers. [`NoPerturbation`] keeps every nominal
    /// duration; the scratch never changes the schedule.
    ///
    /// The graph is validated first ([`Validate::check`]): violations
    /// recorded by the builder methods, plus a full Kahn topological pass
    /// that catches cycles closed by [`TaskGraph::add_dependency`]
    /// ([`Code::DependencyCycle`], RV026).
    pub fn simulate_with(
        &self,
        scratch: &mut SimScratch,
        perturbation: &dyn Perturbation,
    ) -> Result<Schedule, ValidationError> {
        self.check()?;
        let armed = recsim_detsan::enabled();
        if armed {
            recsim_detsan::record("sim/taskgraph", self.state_digest());
        }
        let schedule = self.execute(scratch, perturbation);
        if armed {
            recsim_detsan::record("sim/schedule", schedule.state_digest());
        }
        Ok(schedule)
    }

    /// The discrete-event engine proper. Only called on a validated graph:
    /// every resource binding is in range and the dependency relation is
    /// acyclic, so the event loop completes every task. Durations go
    /// through `perturbation` in one pre-pass (scheduling itself is
    /// unchanged, so determinism is too); the scratch is fully reset first,
    /// and only `start`/`finish`/`busy` are allocated here (the returned
    /// [`Schedule`] owns them).
    pub(crate) fn execute(
        &self,
        scratch: &mut SimScratch,
        perturbation: &dyn Perturbation,
    ) -> Schedule {
        let n = self.tasks.len();
        scratch.reset(n, self.resources.len());
        for t in &self.tasks {
            let resource = t.resource.map(|r| self.resources[r.0].name.as_str());
            scratch
                .durations
                .push(perturbation.perturbed_duration(resource, t.category, t.duration));
        }
        for (i, t) in self.tasks.iter().enumerate() {
            scratch.remaining_deps[i] = t.deps.len();
            for d in &t.deps {
                scratch.dep_offsets[d.0 + 1] += 1;
            }
        }
        for i in 0..n {
            scratch.dep_offsets[i + 1] += scratch.dep_offsets[i];
        }
        // Filling in task-id order keeps each CSR row ascending — the same
        // dependent order the old Vec<Vec<_>> build produced.
        scratch
            .dep_cursor
            .extend_from_slice(&scratch.dep_offsets[..n]);
        scratch.dep_targets.resize(scratch.dep_offsets[n], 0);
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                scratch.dep_targets[scratch.dep_cursor[d.0]] = i;
                scratch.dep_cursor[d.0] += 1;
            }
        }

        let mut start = vec![Duration::ZERO; n];
        let mut finish = vec![Duration::ZERO; n];
        let mut busy = vec![Duration::ZERO; self.resources.len()];

        let mut seq = 0u64;
        let mut now = Duration::ZERO;

        // Local helper invoked whenever a task becomes ready or a resource
        // frees: try to start tasks. The scratch's disjoint fields are
        // borrowed individually so the CSR rows can stay borrowed in the
        // event loop below.
        #[allow(clippy::too_many_arguments)]
        fn try_start(
            task: usize,
            tasks: &[Task],
            durations: &[Duration],
            now: Duration,
            in_use: &mut [usize],
            resources: &[Resource],
            queues: &mut [std::collections::VecDeque<usize>],
            start: &mut [Duration],
            finish: &mut [Duration],
            busy: &mut [Duration],
            started: &mut [bool],
            heap: &mut BinaryHeap<Event>,
            seq: &mut u64,
        ) {
            if started[task] {
                return;
            }
            match tasks[task].resource {
                None => {
                    started[task] = true;
                    start[task] = now;
                    finish[task] = now + durations[task];
                    *seq += 1;
                    heap.push(Event(finish[task].as_secs(), *seq, task));
                }
                Some(r) => {
                    if in_use[r.0] < resources[r.0].capacity {
                        in_use[r.0] += 1;
                        started[task] = true;
                        start[task] = now;
                        finish[task] = now + durations[task];
                        busy[r.0] += durations[task];
                        *seq += 1;
                        heap.push(Event(finish[task].as_secs(), *seq, task));
                    } else {
                        queues[r.0].push_back(task);
                    }
                }
            }
        }

        // Seed with dependency-free tasks, in id order.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if scratch.remaining_deps[i] == 0 {
                try_start(
                    i,
                    &self.tasks,
                    &scratch.durations,
                    now,
                    &mut scratch.in_use,
                    &self.resources,
                    &mut scratch.queues,
                    &mut start,
                    &mut finish,
                    &mut busy,
                    &mut scratch.started,
                    &mut scratch.heap,
                    &mut seq,
                );
            }
        }

        while let Some(Event(t, _, task)) = scratch.heap.pop() {
            now = Duration::from_secs(t);
            if scratch.done[task] {
                continue;
            }
            scratch.done[task] = true;
            // Release the resource and start the next queued task.
            if let Some(r) = self.tasks[task].resource {
                scratch.in_use[r.0] -= 1;
                if let Some(next) = scratch.queues[r.0].pop_front() {
                    try_start(
                        next,
                        &self.tasks,
                        &scratch.durations,
                        now,
                        &mut scratch.in_use,
                        &self.resources,
                        &mut scratch.queues,
                        &mut start,
                        &mut finish,
                        &mut busy,
                        &mut scratch.started,
                        &mut scratch.heap,
                        &mut seq,
                    );
                }
            }
            // Unblock dependents.
            for slot in scratch.dep_offsets[task]..scratch.dep_offsets[task + 1] {
                let dep = scratch.dep_targets[slot];
                scratch.remaining_deps[dep] -= 1;
                if scratch.remaining_deps[dep] == 0 {
                    try_start(
                        dep,
                        &self.tasks,
                        &scratch.durations,
                        now,
                        &mut scratch.in_use,
                        &self.resources,
                        &mut scratch.queues,
                        &mut start,
                        &mut finish,
                        &mut busy,
                        &mut scratch.started,
                        &mut scratch.heap,
                        &mut seq,
                    );
                }
            }
        }

        // Validation guarantees acyclicity, so every task has completed;
        // the fold below would simply ignore unreached (zero-time) tasks if
        // that invariant were ever broken.
        let makespan = finish.iter().copied().fold(Duration::ZERO, Duration::max);
        Schedule {
            makespan,
            start,
            finish,
            busy,
            resource_names: self.resources.iter().map(|r| r.name.clone()).collect(),
            resource_capacity: self.resources.iter().map(|r| r.capacity).collect(),
            task_names: self.tasks.iter().map(|t| t.name.clone()).collect(),
            task_category: self.tasks.iter().map(|t| t.category).collect(),
            task_resource: self.tasks.iter().map(|t| t.resource.map(|r| r.0)).collect(),
            task_deps: self
                .tasks
                .iter()
                .map(|t| t.deps.iter().map(|d| d.0).filter(|&d| d < n).collect())
                .collect(),
        }
    }
}

impl Validate for TaskGraph {
    /// Violations recorded while building (RV025/RV026/RV027) plus a Kahn
    /// topological pass over the final dependency relation — the only way
    /// to catch cycles closed after the fact by
    /// [`TaskGraph::add_dependency`].
    fn validate(&self) -> Vec<Diagnostic> {
        let mut out = self.violations.clone();

        let n = self.tasks.len();
        let mut remaining: Vec<usize> = vec![0; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                if d.0 < n {
                    remaining[i] += 1;
                    dependents[d.0].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut settled = 0usize;
        while let Some(i) = queue.pop() {
            settled += 1;
            for &dep in &dependents[i] {
                remaining[dep] -= 1;
                if remaining[dep] == 0 {
                    queue.push(dep);
                }
            }
        }
        if settled < n {
            let stuck: Vec<&str> = self
                .tasks
                .iter()
                .enumerate()
                .filter(|&(i, _)| remaining[i] > 0)
                .take(4)
                .map(|(_, t)| t.name.as_str())
                .collect();
            out.push(Diagnostic::error(
                Code::DependencyCycle,
                "TaskGraph",
                format!(
                    "{} task(s) are trapped in a dependency cycle (e.g. {})",
                    n - settled,
                    stuck.join(", ")
                ),
            ));
        }
        out
    }
}

impl Schedule {
    /// Total time from first start to last finish.
    pub fn makespan(&self) -> Duration {
        self.makespan
    }

    /// Digest of the full schedule (per-task start/finish, per-resource
    /// busy time), recorded as stage `sim/schedule` when the determinism
    /// sanitizer is armed.
    fn state_digest(&self) -> u64 {
        let mut d = recsim_detsan::StateDigest::new();
        d.write_f64(self.makespan.as_secs());
        for times in [&self.start, &self.finish, &self.busy] {
            d.write_usize(times.len());
            for t in times {
                d.write_f64(t.as_secs());
            }
        }
        d.finish()
    }

    /// When `task` started.
    pub fn start_of(&self, task: TaskId) -> Duration {
        self.start[task.0]
    }

    /// When `task` finished.
    pub fn finish_of(&self, task: TaskId) -> Duration {
        self.finish[task.0]
    }

    /// Busy time accumulated on `resource` (summed over capacity slots).
    pub fn busy_time(&self, resource: ResourceId) -> Duration {
        self.busy[resource.0]
    }

    /// Utilization of `resource` in `[0, 1]`: busy time divided by
    /// `capacity × makespan`. Zero when the makespan is zero.
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let cap = self.resource_capacity[resource.0] as f64;
        if self.makespan.as_secs() == 0.0 {
            return 0.0;
        }
        (self.busy[resource.0].as_secs() / (self.makespan.as_secs() * cap)).min(1.0)
    }

    /// `(name, utilization)` pairs for every resource.
    pub fn utilizations(&self) -> Vec<(String, f64)> {
        (0..self.resource_names.len())
            .map(|i| {
                (
                    self.resource_names[i].clone(),
                    self.utilization(ResourceId(i)),
                )
            })
            .collect()
    }

    /// The resource with the highest utilization, if any have non-zero busy
    /// time — the bottleneck.
    pub fn bottleneck(&self) -> Option<(String, f64)> {
        self.utilizations()
            .into_iter()
            .filter(|(_, u)| *u > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Attribution category of a task.
    pub fn task_category_of(&self, task: TaskId) -> TaskCategory {
        self.task_category[task.0]
    }

    /// The schedule as a recorded [`Trace`], ready for the `recsim-trace`
    /// exporters (Chrome trace-event JSON via `recsim_trace::chrome_trace`,
    /// text timeline, summary tables): one span per non-zero-duration task
    /// on its resource's track (unbound tasks on `(unbound)`), a
    /// `running:<resource>` occupancy counter sampled at every start/finish
    /// edge, and a `makespan` instant marking the end of the iteration.
    pub fn to_trace(&self) -> Trace {
        let mut recorder = TraceRecorder::new();
        for t in 0..self.task_names.len() {
            let start_us = self.start[t].as_micros();
            let dur_us = self.finish[t].as_micros() - start_us;
            if dur_us <= 0.0 {
                continue;
            }
            let track = match self.task_resource[t] {
                Some(r) => self.resource_names[r].as_str(),
                None => "(unbound)",
            };
            recorder.span(
                track,
                &self.task_names[t],
                self.task_category[t],
                start_us,
                dur_us,
            );
        }
        for (r, name) in self.resource_names.iter().enumerate() {
            let mut edges: Vec<(f64, f64)> = Vec::new();
            for t in 0..self.task_names.len() {
                if self.task_resource[t] == Some(r) && self.finish[t] > self.start[t] {
                    edges.push((self.start[t].as_micros(), 1.0));
                    edges.push((self.finish[t].as_micros(), -1.0));
                }
            }
            edges.sort_by(|a, b| a.0.total_cmp(&b.0));
            let counter = format!("running:{name}");
            let mut level = 0.0;
            let mut i = 0;
            while i < edges.len() {
                let ts = edges[i].0;
                while i < edges.len() && edges[i].0 == ts {
                    level += edges[i].1;
                    i += 1;
                }
                recorder.counter(&counter, ts, level);
            }
        }
        recorder.instant("(schedule)", "makespan", self.makespan.as_micros());
        recorder.finish()
    }

    /// The schedule's tasks in the form the critical-path analysis consumes.
    pub fn scheduled_tasks(&self) -> Vec<ScheduledTask> {
        (0..self.task_names.len())
            .map(|t| ScheduledTask {
                name: self.task_names[t].clone(),
                category: self.task_category[t],
                start: self.start[t].as_secs(),
                finish: self.finish[t].as_secs(),
                resource: self.task_resource[t],
                deps: self.task_deps[t].clone(),
            })
            .collect()
    }

    /// Critical-path attribution: partitions `[0, makespan]` across task
    /// categories by walking the dependency/resource-wait chain backwards
    /// from the last-finishing task, with a top-`top_k` slack report. The
    /// per-category durations sum to the makespan exactly.
    pub fn critical_path(&self, top_k: usize) -> CriticalPathReport {
        recsim_trace::critical_path(&self.scheduled_tasks(), top_k)
    }

    /// The critical-path breakdown as `(category label, time)` pairs — the
    /// shape `SimReport` carries. Durations sum to the makespan.
    pub fn attribution(&self) -> Vec<(String, Duration)> {
        self.critical_path(0)
            .breakdown
            .into_iter()
            .map(|(category, secs)| (category.label().to_string(), Duration::from_secs(secs)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn serial_chain_sums() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.add_task("a", ms(1.0), Some(r), &[]);
        let b = g.add_task("b", ms(2.0), Some(r), &[a]);
        let c = g.add_task("c", ms(3.0), Some(r), &[b]);
        let s = g.simulate().expect("valid graph");
        assert!((s.makespan().as_millis() - 6.0).abs() < 1e-9);
        assert!((s.finish_of(c).as_millis() - 6.0).abs() < 1e-9);
        assert!((s.utilization(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("r1", 1);
        let r2 = g.add_resource("r2", 1);
        g.add_task("a", ms(5.0), Some(r1), &[]);
        g.add_task("b", ms(5.0), Some(r2), &[]);
        let s = g.simulate().expect("valid graph");
        assert!((s.makespan().as_millis() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn resource_contention_serializes() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.add_task("a", ms(5.0), Some(r), &[]);
        g.add_task("b", ms(5.0), Some(r), &[]);
        let s = g.simulate().expect("valid graph");
        assert!((s.makespan().as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_two_runs_pairs() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 2);
        for i in 0..4 {
            g.add_task(format!("t{i}"), ms(1.0), Some(r), &[]);
        }
        let s = g.simulate().expect("valid graph");
        assert!((s.makespan().as_millis() - 2.0).abs() < 1e-9);
        assert!((s.utilization(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_gate_start() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("r1", 1);
        let r2 = g.add_resource("r2", 1);
        let a = g.add_task("a", ms(3.0), Some(r1), &[]);
        let b = g.add_task("b", ms(1.0), Some(r2), &[a]);
        let s = g.simulate().expect("valid graph");
        assert!((s.start_of(b).as_millis() - 3.0).abs() < 1e-9);
        assert!((s.makespan().as_millis() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_joins_branches() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("r1", 1);
        let r2 = g.add_resource("r2", 1);
        let a = g.add_task("a", ms(2.0), Some(r1), &[]);
        let b = g.add_task("b", ms(7.0), Some(r2), &[]);
        let j = g.add_barrier("join", &[a, b]);
        let s = g.simulate().expect("valid graph");
        assert!((s.finish_of(j).as_millis() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_order_is_deterministic() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let first = g.add_task("first", ms(1.0), Some(r), &[]);
        let second = g.add_task("second", ms(1.0), Some(r), &[]);
        let s = g.simulate().expect("valid graph");
        assert!(s.finish_of(first).as_secs() < s.finish_of(second).as_secs());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_allocation() {
        // Three differently-shaped graphs simulated back-to-back through one
        // scratch must reproduce the fresh-allocation schedules exactly,
        // including after the scratch has been stretched by a larger graph.
        let mut graphs = Vec::new();
        for shape in 0..3 {
            let mut g = TaskGraph::new();
            let r1 = g.add_resource("r1", 1);
            let r2 = g.add_resource("r2", 2);
            let mut prev = Vec::new();
            for i in 0..(5 + shape * 20) {
                let res = if i % 3 == 0 { Some(r1) } else { Some(r2) };
                let deps: Vec<TaskId> = prev.iter().rev().take(2).copied().collect();
                let t = g.add_task(format!("t{i}"), ms(0.5 + (i % 7) as f64), res, &deps);
                prev.push(t);
            }
            graphs.push(g);
        }
        let mut scratch = SimScratch::new();
        // Interleave orders so reuse crosses both growing and shrinking sizes.
        for &idx in &[0usize, 2, 1, 0, 2] {
            let fresh = graphs[idx].simulate().expect("valid graph");
            let reused = graphs[idx]
                .simulate_with(&mut scratch, &NoPerturbation)
                .expect("valid graph");
            assert_eq!(fresh.makespan().as_secs(), reused.makespan().as_secs());
            for task in 0..graphs[idx].len() {
                let id = TaskId(task);
                assert_eq!(fresh.start_of(id).as_secs(), reused.start_of(id).as_secs());
                assert_eq!(
                    fresh.finish_of(id).as_secs(),
                    reused.finish_of(id).as_secs()
                );
            }
        }
    }

    #[test]
    fn utilization_reflects_idle_time() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("r1", 1);
        let r2 = g.add_resource("r2", 1);
        let a = g.add_task("a", ms(8.0), Some(r1), &[]);
        g.add_task("b", ms(2.0), Some(r2), &[a]);
        let s = g.simulate().expect("valid graph");
        assert!((s.utilization(r1) - 0.8).abs() < 1e-9);
        assert!((s.utilization(r2) - 0.2).abs() < 1e-9);
        let (name, _) = s.bottleneck().expect("has bottleneck");
        assert_eq!(name, "r1");
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = TaskGraph::new();
        let s = g.simulate().expect("valid graph");
        assert_eq!(s.makespan(), Duration::ZERO);
        assert!(s.bottleneck().is_none());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_events() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("gpu \"zero\"", 1);
        let a = g.add_task("kernel_a", ms(1.0), Some(r), &[]);
        let b = g.add_task("kernel_b", ms(2.0), Some(r), &[a]);
        let _ = b;
        g.add_task("free_task", ms(0.5), None, &[]);
        g.add_barrier("done", &[a]); // zero-duration: skipped in the trace
        let trace = recsim_trace::chrome_trace(&g.simulate().expect("valid graph").to_trace());
        let parsed = recsim_detsan::json::parse(&trace).expect("valid JSON despite quoted names");
        let events = parsed["traceEvents"].as_array().expect("array");
        let durations: Vec<f64> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| e["dur"].as_f64().expect("dur"))
            .collect();
        assert_eq!(durations.len(), 3, "{trace}");
        assert!(durations.iter().any(|&d| (d - 1000.0).abs() < 1e-6));
        assert!(durations.iter().any(|&d| (d - 2000.0).abs() < 1e-6));
        // Resource + unbound + schedule-marker thread metadata.
        let metas = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .count();
        assert_eq!(metas, 3, "{trace}");
        // Occupancy counter samples for the one real resource.
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("C")));
        // The makespan instant survives.
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("i") && e["name"].as_str() == Some("makespan")));
    }

    #[test]
    fn categories_flow_from_builder_to_schedule() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.add_task_in(
            TaskCategory::EmbeddingLookup,
            "gather",
            ms(1.0),
            Some(r),
            &[],
        );
        let b = g.add_task("anything", ms(1.0), Some(r), &[a]);
        let barrier = g.add_barrier("join", &[b]);
        let s = g.simulate().expect("valid graph");
        assert_eq!(s.task_category_of(a), TaskCategory::EmbeddingLookup);
        assert_eq!(s.task_category_of(b), TaskCategory::Other);
        assert_eq!(s.task_category_of(barrier), TaskCategory::Framework);
    }

    #[test]
    fn attribution_partitions_the_makespan() {
        let mut g = TaskGraph::new();
        let nic = g.add_resource("nic", 1);
        let gpu = g.add_resource("gpu", 1);
        let read = g.add_task_in(TaskCategory::ReaderStall, "read", ms(2.0), Some(nic), &[]);
        let mlp = g.add_task_in(TaskCategory::MlpCompute, "mlp", ms(5.0), Some(gpu), &[read]);
        let opt = g.add_task_in(TaskCategory::Optimizer, "opt", ms(1.0), Some(gpu), &[mlp]);
        let _ = opt;
        let s = g.simulate().expect("valid graph");
        let report = s.critical_path(8);
        assert!((report.makespan - s.makespan().as_secs()).abs() < 1e-12);
        let total: f64 = report.breakdown.iter().map(|(_, t)| t).sum();
        assert!((total - report.makespan).abs() < 1e-12);
        assert!((report.share_of(TaskCategory::MlpCompute) - 0.005).abs() < 1e-12);
        let attribution = s.attribution();
        let attr_total: f64 = attribution.iter().map(|(_, d)| d.as_secs()).sum();
        assert!((attr_total - s.makespan().as_secs()).abs() < 1e-12);
        assert!(attribution.iter().any(|(l, _)| l == "reader stall"));
    }

    #[test]
    fn emitted_schedule_records_spans() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        g.add_task_in(TaskCategory::PsUpdate, "scatter", ms(1.0), Some(r), &[]);
        let s = g.simulate().expect("valid graph");
        let trace = s.to_trace();
        assert!(!trace.is_empty());
        let totals = trace.category_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, TaskCategory::PsUpdate);
    }

    #[test]
    fn unbound_tasks_run_immediately() {
        let mut g = TaskGraph::new();
        let a = g.add_task("free", ms(4.0), None, &[]);
        let s = g.simulate().expect("valid graph");
        assert!((s.finish_of(a).as_millis() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_resource_is_rv027() {
        let mut g = TaskGraph::new();
        assert!(g.try_add_resource("broken", 0).is_err());
        let r = g.add_resource("broken", 0); // recorded, id still usable
        g.add_task("t", ms(1.0), Some(r), &[]);
        let err = g.simulate().expect_err("zero capacity rejected");
        assert!(err.has_code(Code::ZeroCapacityResource));
    }

    #[test]
    fn unknown_resource_binding_is_rv025() {
        let mut g = TaskGraph::new();
        g.add_resource("real", 1);
        let phantom = ResourceId(7);
        assert!(g.try_add_task("t", ms(1.0), Some(phantom), &[]).is_err());
        g.add_task("t", ms(1.0), Some(phantom), &[]);
        let err = g.simulate().expect_err("unknown resource rejected");
        assert!(err.has_code(Code::UnknownTaskResource));
    }

    #[test]
    fn forward_dependency_is_rv026() {
        let mut g = TaskGraph::new();
        let future = TaskId(3);
        assert!(g.try_add_task("t", ms(1.0), None, &[future]).is_err());
        g.add_task("t", ms(1.0), None, &[future]);
        let err = g.simulate().expect_err("forward dependency rejected");
        assert!(err.has_code(Code::DependencyCycle));
    }

    #[test]
    fn injected_cycle_is_rv026() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 1);
        let a = g.add_task("a", ms(1.0), Some(r), &[]);
        let b = g.add_task("b", ms(1.0), Some(r), &[a]);
        let c = g.add_task("c", ms(1.0), Some(r), &[b]);
        g.add_dependency(a, c); // closes the a -> b -> c -> a cycle
        let err = g.simulate().expect_err("cycle rejected");
        assert!(err.has_code(Code::DependencyCycle));
        assert!(err.to_string().contains("RV026"), "{err}");
    }

    /// Stretches tasks bound to one named resource by a constant factor.
    struct Stretch<'a>(&'a str, f64);
    impl Perturbation for Stretch<'_> {
        fn perturbed_duration(
            &self,
            resource: Option<&str>,
            _category: TaskCategory,
            base: Duration,
        ) -> Duration {
            if resource == Some(self.0) {
                base * self.1
            } else {
                base
            }
        }
    }

    #[test]
    fn no_perturbation_reproduces_the_plain_schedule() {
        let mut g = TaskGraph::new();
        let r1 = g.add_resource("r1", 1);
        let r2 = g.add_resource("r2", 2);
        let mut prev = Vec::new();
        for i in 0..20 {
            let res = if i % 3 == 0 { Some(r1) } else { Some(r2) };
            let deps: Vec<TaskId> = prev.iter().rev().take(2).copied().collect();
            prev.push(g.add_task(format!("t{i}"), ms(0.5 + (i % 5) as f64), res, &deps));
        }
        let mut scratch = SimScratch::new();
        let plain = g.simulate().expect("valid graph");
        let identity = g
            .simulate_with(&mut scratch, &NoPerturbation)
            .expect("valid graph");
        assert_eq!(plain.makespan().as_secs(), identity.makespan().as_secs());
        for t in 0..g.len() {
            let id = TaskId(t);
            assert_eq!(
                plain.start_of(id).as_secs(),
                identity.start_of(id).as_secs()
            );
            assert_eq!(
                plain.finish_of(id).as_secs(),
                identity.finish_of(id).as_secs()
            );
        }
    }

    #[test]
    fn perturbation_stretches_only_its_resource() {
        let mut g = TaskGraph::new();
        let slow = g.add_resource("gpu0", 1);
        let fast = g.add_resource("gpu1", 1);
        let a = g.add_task("a", ms(2.0), Some(slow), &[]);
        let b = g.add_task("b", ms(2.0), Some(fast), &[]);
        let mut scratch = SimScratch::new();
        let s = g
            .simulate_with(&mut scratch, &Stretch("gpu0", 3.0))
            .expect("valid graph");
        assert!((s.finish_of(a).as_millis() - 6.0).abs() < 1e-9);
        assert!((s.finish_of(b).as_millis() - 2.0).abs() < 1e-9);
        assert!((s.makespan().as_millis() - 6.0).abs() < 1e-9);
        // Busy time reflects the stretched duration too.
        assert!((s.busy_time(slow).as_millis() - 6.0).abs() < 1e-9);
        assert!((s.busy_time(fast).as_millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn diamond_dag() {
        let mut g = TaskGraph::new();
        let r = g.add_resource("r", 2);
        let src = g.add_task("src", ms(1.0), Some(r), &[]);
        let left = g.add_task("left", ms(2.0), Some(r), &[src]);
        let right = g.add_task("right", ms(3.0), Some(r), &[src]);
        let sink = g.add_task("sink", ms(1.0), Some(r), &[left, right]);
        let s = g.simulate().expect("valid graph");
        // 1 + max(2,3) + 1 = 5.
        assert!((s.finish_of(sink).as_millis() - 5.0).abs() < 1e-9);
    }
}
