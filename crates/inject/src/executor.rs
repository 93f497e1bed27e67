//! Executing a network under an injection plan.
//!
//! The executor compiles a plan against a concrete network (validating every
//! site), then interposes on the forward pass through `neurofail-nn`'s
//! [`Tap`] hooks:
//!
//! * neuron faults overwrite entries of the **post-activation** outputs —
//!   exactly Definition 2 (other neurons "consider `y = 0`" for a crash;
//!   Byzantine values are clamped to ±C by the synapse, Assumption 1);
//! * hidden-synapse faults adjust the receiving **pre-activation** sums
//!   (a crashed synapse removes its `w·y` contribution; a Byzantine synapse
//!   adds the Lemma-2 deviation `λ`, clamped to ±C);
//! * output-synapse faults adjust the output node's sum the same way.
//!
//! The measured quantity downstream is `|F_neu(X) − F_fail(X)|` — the
//! left-hand side of Theorem 2's inequality.

use neurofail_nn::{BatchTap, BatchWorkspace, Mlp, Tap, Workspace};
use neurofail_par::seed::splitmix64;
use neurofail_tensor::io::ByteWriter;
use neurofail_tensor::Matrix;

use crate::plan::{ByzantineStrategy, InjectionPlan, NeuronFault, SynapseFault, SynapseTarget};

/// Plan/network mismatch reported at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Neuron site outside the network.
    BadNeuron {
        /// 0-based layer index of the offending site.
        layer: usize,
        /// Neuron index of the offending site.
        neuron: usize,
    },
    /// Synapse site outside the network.
    BadSynapse(
        /// Human-readable description of the offending site.
        String,
    ),
    /// The same neuron appears in two sites.
    DuplicateNeuron {
        /// 0-based layer index.
        layer: usize,
        /// Neuron index.
        neuron: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadNeuron { layer, neuron } => {
                write!(f, "no neuron {neuron} in layer {layer}")
            }
            PlanError::BadSynapse(s) => write!(f, "invalid synapse site: {s}"),
            PlanError::DuplicateNeuron { layer, neuron } => {
                write!(f, "duplicate fault on neuron {neuron} of layer {layer}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A synapse fault with its nominal weight resolved against the network, so
/// crashes can remove exactly the contribution `w_ji · y_i` at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ResolvedSynapseFault {
    /// Remove `weight · input[from]` from the receiving sum.
    Crash {
        /// The nominal synaptic weight captured at compile time.
        weight: f64,
    },
    /// Add the (capacity-clamped) deviation to the receiving sum.
    Byzantine(f64),
}

/// A plan validated and indexed against a network, ready for repeated
/// execution (compile once, run over many inputs).
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Per layer: `(neuron, fault)` sites, sorted by neuron.
    neuron_sites: Vec<Vec<(usize, NeuronFault)>>,
    /// Per layer: hidden synapse sites `(to, from, fault)`.
    synapse_sites: Vec<Vec<(usize, usize, ResolvedSynapseFault)>>,
    /// Output-node synapse sites `(from, fault)`.
    output_sites: Vec<(usize, ResolvedSynapseFault)>,
    /// Synaptic capacity C (clamps all adversarial values).
    capacity: f64,
}

impl CompiledPlan {
    /// Validate `plan` against `net` under capacity `c`.
    ///
    /// # Errors
    /// [`PlanError`] on any out-of-range or duplicate site.
    pub fn compile(plan: &InjectionPlan, net: &Mlp, capacity: f64) -> Result<Self, PlanError> {
        assert!(capacity > 0.0, "capacity must be positive");
        let widths = net.widths();
        let depth = widths.len();
        let mut neuron_sites = vec![Vec::new(); depth];
        for s in &plan.neurons {
            if s.layer >= depth || s.neuron >= widths[s.layer] {
                return Err(PlanError::BadNeuron {
                    layer: s.layer,
                    neuron: s.neuron,
                });
            }
            if neuron_sites[s.layer].iter().any(|&(n, _)| n == s.neuron) {
                return Err(PlanError::DuplicateNeuron {
                    layer: s.layer,
                    neuron: s.neuron,
                });
            }
            neuron_sites[s.layer].push((s.neuron, s.fault));
        }
        for sites in &mut neuron_sites {
            sites.sort_by_key(|&(n, _)| n);
        }

        let mut synapse_sites = vec![Vec::new(); depth];
        let mut output_sites = Vec::new();
        for s in &plan.synapses {
            match s.target {
                SynapseTarget::Hidden { layer, to, from } => {
                    let fan_in = if layer == 0 {
                        net.input_dim()
                    } else if layer < depth {
                        widths[layer - 1]
                    } else {
                        return Err(PlanError::BadSynapse(format!("layer {layer} out of range")));
                    };
                    if to >= widths[layer] || from >= fan_in {
                        return Err(PlanError::BadSynapse(format!(
                            "synapse {from}->{to} at layer {layer}"
                        )));
                    }
                    let resolved = match s.fault {
                        SynapseFault::Crash => ResolvedSynapseFault::Crash {
                            weight: net.layers()[layer].weight(to, from),
                        },
                        SynapseFault::Byzantine(d) => ResolvedSynapseFault::Byzantine(d),
                    };
                    synapse_sites[layer].push((to, from, resolved));
                }
                SynapseTarget::Output { from } => {
                    if from >= widths[depth - 1] {
                        return Err(PlanError::BadSynapse(format!("output synapse from {from}")));
                    }
                    let resolved = match s.fault {
                        SynapseFault::Crash => ResolvedSynapseFault::Crash {
                            weight: net.output_weights()[from],
                        },
                        SynapseFault::Byzantine(d) => ResolvedSynapseFault::Byzantine(d),
                    };
                    output_sites.push((from, resolved));
                }
            }
        }
        Ok(CompiledPlan {
            neuron_sites,
            synapse_sites,
            output_sites,
            capacity,
        })
    }

    /// The capacity this plan was compiled under.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Run the faulty forward pass, returning `F_fail(x)`.
    pub fn run(&self, net: &Mlp, x: &[f64], ws: &mut Workspace) -> f64 {
        let mut tap = InjectorTap { plan: self };
        net.forward_tapped(x, ws, &mut tap)
    }

    /// Convenience: `|F_neu(x) − F_fail(x)|` with an internal workspace.
    pub fn output_error(&self, net: &Mlp, x: &[f64], ws: &mut Workspace) -> f64 {
        let nominal = net.forward_ws(x, ws);
        let faulty = self.run(net, x, ws);
        (nominal - faulty).abs()
    }

    /// Run the faulty forward pass over a whole batch (rows of `xs`),
    /// returning `F_fail(x_b)` per row — one GEMM-based pass for the plan
    /// instead of `B` scalar passes. Row `b`'s value is bitwise independent
    /// of the batch it rides in (the engine's determinism contract), so a
    /// campaign observation replays exactly as a singleton batch.
    pub fn run_batch(&self, net: &Mlp, xs: &Matrix, ws: &mut BatchWorkspace) -> Vec<f64> {
        let mut tap = BatchInjectorTap { plan: self };
        net.forward_batch_tapped(xs, ws, &mut tap)
    }

    /// Batched `|F_neu(x_b) − F_fail(x_b)|`: one nominal batched pass plus
    /// one **full** faulty batched pass over the plan's whole input set —
    /// the suffix engine's reference implementation. The hot loops
    /// (campaigns, exhaustive sweeps, serve flushes) now route through
    /// [`CompiledPlan::output_error_resumed`] / [`crate::multi`], which
    /// take the nominal part of the faulty pass from a checkpoint and are
    /// **bitwise** equal to this call; this two-full-passes form remains
    /// the contract both are stated against (and what the adversarial
    /// input search, whose candidate inputs change every step, still uses
    /// directly). As singleton rows it is also the reference for the
    /// serving engine's bitwise contract.
    ///
    /// # Example
    /// ```
    /// use neurofail_data::rng::rng;
    /// use neurofail_inject::{CompiledPlan, InjectionPlan};
    /// use neurofail_nn::{activation::Activation, BatchWorkspace, MlpBuilder};
    /// use neurofail_tensor::{init::Init, Matrix};
    ///
    /// let net = MlpBuilder::new(2)
    ///     .dense(5, Activation::Sigmoid { k: 1.0 })
    ///     .init(Init::Xavier)
    ///     .build(&mut rng(3));
    ///
    /// // Compile once (crash neuron 2 of layer 1), evaluate over a batch.
    /// let plan = CompiledPlan::compile(&InjectionPlan::crash([(0, 2)]), &net, 1.0)?;
    /// let xs = Matrix::from_fn(8, 2, |r, c| r as f64 * 0.1 + c as f64 * 0.05);
    /// let mut ws = BatchWorkspace::for_net(&net, 8);
    /// let errors = plan.output_error_batch(&net, &xs, &mut ws);
    /// assert_eq!(errors.len(), 8);
    /// assert!(errors.iter().all(|&e| e >= 0.0));
    ///
    /// // Per-row batch independence: any row replays exactly as a
    /// // singleton batch.
    /// let one = Matrix::from_vec(1, 2, xs.row(3).to_vec());
    /// assert_eq!(plan.output_error_batch(&net, &one, &mut ws)[0], errors[3]);
    /// # Ok::<(), neurofail_inject::PlanError>(())
    /// ```
    pub fn output_error_batch(&self, net: &Mlp, xs: &Matrix, ws: &mut BatchWorkspace) -> Vec<f64> {
        let mut errors = net.forward_batch(xs, ws);
        let faulty = self.run_batch(net, xs, ws);
        for (e, f) in errors.iter_mut().zip(&faulty) {
            *e = (*e - f).abs();
        }
        errors
    }

    /// The earliest layer this plan interposes on: the first layer with a
    /// neuron site (post-activation outputs) or a hidden synapse into it
    /// (pre-activation sums), or `depth` (= number of per-layer site
    /// tables) when the plan touches only output synapses, or nothing at
    /// all — then every hidden layer of a faulty pass is bitwise nominal
    /// and only the output dot product differs.
    ///
    /// Layers `< first_faulty_layer()` of a faulty pass recompute exactly
    /// the nominal values, and so do the sums and activations of layer
    /// `first_faulty_layer()` itself when the plan has no synapse into
    /// it; [`CompiledPlan::resume_start`] turns that into where a resumed
    /// pass starts (see [`crate::multi`]).
    pub fn first_faulty_layer(&self) -> usize {
        self.neuron_sites
            .iter()
            .zip(&self.synapse_sites)
            .position(|(n, s)| !n.is_empty() || !s.is_empty())
            .unwrap_or(self.neuron_sites.len())
    }

    /// Where this plan's faulty pass resumes against a nominal checkpoint,
    /// chosen from its own sites: with first faulty layer `f`,
    ///
    /// * [`ResumeStart::AfterActivation`]`(f)` when layer `f` has neuron
    ///   sites and no hidden synapse into it — its sums and activations
    ///   are nominal, so the checkpoint's layer-`f` outputs plus the
    ///   plan's layer-`f` neuron faults are exactly what the full faulty
    ///   pass computes there (Definition 2: a failed neuron changes only
    ///   its own outgoing value; `OpposeNominal` reads the nominal value
    ///   it overwrites);
    /// * [`ResumeStart::Layer`]`(f)` otherwise — a synapse into `f`
    ///   changes its sums, and `f = depth` leaves only the output stage.
    ///
    /// Every checkpointed path follows it:
    /// [`CompiledPlan::resume_batch_checkpointed`], and through it
    /// [`CompiledPlan::output_error_checkpointed`],
    /// [`CompiledPlan::output_error_resumed`] and [`crate::multi`].
    pub fn resume_start(&self) -> ResumeStart {
        let f = self.first_faulty_layer();
        match self.synapse_sites.get(f) {
            Some(synapses) if synapses.is_empty() => ResumeStart::AfterActivation(f),
            _ => ResumeStart::Layer(f),
        }
    }

    /// Run the faulty pass from an explicit `start` over `start_input`,
    /// the matrix (or rows of the matrix) [`ResumeStart::input`] selects
    /// from a nominal checkpoint: [`Mlp::resume_batch_from`] for
    /// [`ResumeStart::Layer`], [`Mlp::resume_batch_after`] for
    /// [`ResumeStart::AfterActivation`], with this plan's taps.
    ///
    /// Bitwise identical to [`CompiledPlan::run_batch`] over the inputs
    /// that produced the checkpoint whenever the plan leaves every hook
    /// before `start` untouched: `Layer(l)` for
    /// `l <= self.first_faulty_layer()`, `AfterActivation(l)` for
    /// `l < self.first_faulty_layer()` and for
    /// [`CompiledPlan::resume_start`] itself.
    ///
    /// # Panics
    /// If the plan's depth does not match `net`'s (the plan must have been
    /// compiled against this network).
    pub fn resume_batch_at(
        &self,
        net: &Mlp,
        start: ResumeStart,
        start_input: &Matrix,
        ws: &mut BatchWorkspace,
    ) -> Vec<f64> {
        assert_eq!(
            self.neuron_sites.len(),
            net.depth(),
            "resume_batch_at: plan/network depth mismatch"
        );
        let mut tap = BatchInjectorTap { plan: self };
        match start {
            ResumeStart::Layer(l) => net.resume_batch_from(start_input, ws, &mut tap, l),
            ResumeStart::AfterActivation(l) => net.resume_batch_after(start_input, ws, &mut tap, l),
        }
    }

    /// The faulty pass resumed at [`CompiledPlan::resume_start`] against a
    /// nominal checkpoint over `xs`, the start's input borrowed from the
    /// checkpoint by reference ([`ResumeStart::input`]) — the path every
    /// checkpointed evaluation takes.
    ///
    /// # Panics
    /// If the checkpoint does not hold a pass over `xs.rows()` rows
    /// through a network of `net`'s depth, or the plan was compiled
    /// against another depth.
    pub fn resume_batch_checkpointed(
        &self,
        net: &Mlp,
        xs: &Matrix,
        ws_nominal: &BatchWorkspace,
        ws_scratch: &mut BatchWorkspace,
    ) -> Vec<f64> {
        assert_eq!(
            xs.cols(),
            net.input_dim(),
            "resume_batch_checkpointed: input dimension mismatch"
        );
        assert!(
            ws_nominal.batch() == xs.rows() && ws_nominal.outs.len() == net.depth(),
            "resume_batch_checkpointed: checkpoint workspace does not match (net, batch)"
        );
        let start = self.resume_start();
        self.resume_batch_at(net, start, start.input(xs, ws_nominal), ws_scratch)
    }

    /// Suffix-engine `|F_neu(x_b) − F_fail(x_b)|`: one nominal pass into
    /// `ws_nominal` (the checkpoint), then a faulty pass resumed at
    /// [`CompiledPlan::resume_start`] into `ws_scratch`, skipping the
    /// nominal part of the faulty pass entirely.
    ///
    /// **Bitwise** equal to [`CompiledPlan::output_error_batch`] for every
    /// plan, batch size and input set (property-tested in
    /// `tests/suffix_equivalence.rs`); the saving is the
    /// [`ResumeStart::checkpoint_layers`] of the faulty pass's `depth`
    /// layers — `(f + 1) / depth` of its layer work for neuron faults
    /// first at layer `f`, `f / depth` when a synapse enters `f`, all of
    /// it for output-synapse-only plans.
    pub fn output_error_resumed(
        &self,
        net: &Mlp,
        xs: &Matrix,
        ws_nominal: &mut BatchWorkspace,
        ws_scratch: &mut BatchWorkspace,
    ) -> Vec<f64> {
        let mut errors = net.forward_batch(xs, ws_nominal);
        let faulty = self.resume_batch_checkpointed(net, xs, ws_nominal, ws_scratch);
        for (e, f) in errors.iter_mut().zip(&faulty) {
            *e = (*e - f).abs();
        }
        errors
    }

    /// [`CompiledPlan::output_error_resumed`] against an **existing**
    /// nominal checkpoint: the caller supplies the taps (`ws_nominal`)
    /// and nominal outputs (`nominal_y`) a previous nominal pass over
    /// `(net, xs)` produced — from a
    /// [`CheckpointCache`](crate::CheckpointCache) entry or a
    /// [`MultiPlanEvaluator`](crate::MultiPlanEvaluator) — and only the
    /// faulty suffix runs. Bitwise equal to
    /// [`CompiledPlan::output_error_batch`] under the usual checkpoint
    /// validity rules (the checkpoint must come from a nominal pass over
    /// exactly this `(net, xs)`).
    ///
    /// # Panics
    /// If the checkpoint does not match `(net, xs)` in shape, or
    /// `nominal_y.len() != xs.rows()`.
    pub fn output_error_checkpointed(
        &self,
        net: &Mlp,
        xs: &Matrix,
        ws_nominal: &BatchWorkspace,
        nominal_y: &[f64],
        ws_scratch: &mut BatchWorkspace,
    ) -> Vec<f64> {
        assert_eq!(
            nominal_y.len(),
            xs.rows(),
            "output_error_checkpointed: nominal_y/input row mismatch"
        );
        let mut errors = self.resume_batch_checkpointed(net, xs, ws_nominal, ws_scratch);
        for (e, &nom) in errors.iter_mut().zip(nominal_y) {
            *e = (nom - *e).abs();
        }
        errors
    }
}

/// Where a plan's faulty pass starts against a nominal checkpoint
/// ([`CompiledPlan::resume_start`] picks one from the plan's sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeStart {
    /// Recompute layer `l` (its GEMM, pre-activation hook, activation and
    /// post-activation hook) and everything after it, from layer
    /// `l − 1`'s checkpointed outputs — or the inputs for `l = 0`.
    /// `Layer(depth)` runs only the output stage.
    Layer(usize),
    /// Copy layer `l`'s checkpointed outputs, fire its post-activation
    /// hook on the copy, and recompute layers `l + 1..L` and the output
    /// stage.
    AfterActivation(usize),
}

impl ResumeStart {
    /// Layers of the faulty pass this start takes from the checkpoint
    /// instead of recomputing: `l` for `Layer(l)`, `l + 1` for
    /// `AfterActivation(l)`. Over `B` rows it saves `B` times this many
    /// layer-rows against a full faulty pass.
    pub fn checkpoint_layers(self) -> usize {
        match self {
            ResumeStart::Layer(l) => l,
            ResumeStart::AfterActivation(l) => l + 1,
        }
    }

    /// The checkpoint matrix this start reads, over `xs` and the nominal
    /// checkpoint `ws_nominal` of a pass over it: `xs` for `Layer(0)`,
    /// `ws_nominal.outs[l − 1]` for `Layer(l)`, `ws_nominal.outs[l]` for
    /// `AfterActivation(l)`. A caller resuming a subset of the rows
    /// copies those rows of this matrix and hands them to
    /// [`CompiledPlan::resume_batch_at`].
    pub fn input<'a>(self, xs: &'a Matrix, ws_nominal: &'a BatchWorkspace) -> &'a Matrix {
        match self {
            ResumeStart::Layer(0) => xs,
            ResumeStart::Layer(l) => &ws_nominal.outs[l - 1],
            ResumeStart::AfterActivation(l) => &ws_nominal.outs[l],
        }
    }
}

impl CompiledPlan {
    fn clamp(&self, v: f64) -> f64 {
        v.clamp(-self.capacity, self.capacity)
    }

    /// Deterministic "arbitrary" value for a Random-strategy site.
    fn site_value(&self, seed: u64, layer: usize, neuron: usize) -> f64 {
        let h = splitmix64(seed ^ splitmix64((layer as u64) << 32 | neuron as u64));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        self.capacity * (2.0 * unit - 1.0)
    }

    /// The value a faulty neuron broadcasts given its `nominal` output —
    /// the single Definition-2 resolution shared by the scalar and batched
    /// taps, so the batch/scalar equivalence contract cannot drift when a
    /// fault kind is added or its semantics change.
    fn neuron_fault_value(
        &self,
        fault: NeuronFault,
        nominal: f64,
        layer: usize,
        neuron: usize,
    ) -> f64 {
        match fault {
            NeuronFault::Crash => 0.0,
            NeuronFault::StuckAt(v) => self.clamp(v),
            NeuronFault::Byzantine(strategy) => match strategy {
                ByzantineStrategy::MaxPositive => self.capacity,
                ByzantineStrategy::MaxNegative => -self.capacity,
                ByzantineStrategy::OpposeNominal => -self.capacity * nominal.signum(),
                ByzantineStrategy::Random { seed } => self.site_value(seed, layer, neuron),
            },
        }
    }
}

impl CompiledPlan {
    /// The canonical value-independent structure encoding: site positions,
    /// fault kinds and capacity, without fault values or resolved weights.
    /// Its hash is a plan's [`structure_hash`](crate::PlanIr::structure_hash).
    /// Written into a buffer of its exact size: every registration builds
    /// one, and the freed steps of a growing buffer were enough to make
    /// glibc trim and re-fault the heap across repeated set-ups.
    pub(crate) fn structure_bytes(&self) -> Vec<u8> {
        let words = self
            .neuron_sites
            .iter()
            .map(|s| 1 + 2 * s.len())
            .sum::<usize>()
            + self
                .synapse_sites
                .iter()
                .map(|s| 1 + 3 * s.len())
                .sum::<usize>()
            + 2 * self.output_sites.len()
            + 3;
        let mut w = ByteWriter::with_capacity(8 * words);
        w.put_u64(self.neuron_sites.len() as u64);
        for sites in &self.neuron_sites {
            w.put_u64(sites.len() as u64);
            for &(neuron, fault) in sites {
                w.put_u64(neuron as u64);
                w.put_u64(match fault {
                    NeuronFault::Crash => 0,
                    NeuronFault::StuckAt(_) => 1,
                    NeuronFault::Byzantine(_) => 2,
                });
            }
        }
        for sites in &self.synapse_sites {
            w.put_u64(sites.len() as u64);
            for &(to, from, fault) in sites {
                w.put_u64(to as u64);
                w.put_u64(from as u64);
                w.put_u64(match fault {
                    ResolvedSynapseFault::Crash { .. } => 0,
                    ResolvedSynapseFault::Byzantine(_) => 1,
                });
            }
        }
        w.put_u64(self.output_sites.len() as u64);
        for &(from, fault) in &self.output_sites {
            w.put_u64(from as u64);
            w.put_u64(match fault {
                ResolvedSynapseFault::Crash { .. } => 0,
                ResolvedSynapseFault::Byzantine(_) => 1,
            });
        }
        w.put_u64(self.capacity.to_bits());
        debug_assert_eq!(w.len(), 8 * words);
        w.into_bytes()
    }

    /// The fault values — stuck-at levels, Byzantine strategies and
    /// deviations — in site order. The structure bytes fix which sites
    /// carry a value, so together the two encode the plan bitwise (crash
    /// weights follow from the network).
    pub(crate) fn value_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for &(_, fault) in self.neuron_sites.iter().flatten() {
            match fault {
                NeuronFault::Crash => {}
                NeuronFault::StuckAt(v) => w.put_f64(v),
                NeuronFault::Byzantine(s) => match s {
                    ByzantineStrategy::MaxPositive => w.put_u64(0),
                    ByzantineStrategy::MaxNegative => w.put_u64(1),
                    ByzantineStrategy::OpposeNominal => w.put_u64(2),
                    ByzantineStrategy::Random { seed } => {
                        w.put_u64(3);
                        w.put_u64(seed);
                    }
                },
            }
        }
        let hidden = self.synapse_sites.iter().flatten().map(|&(_, _, f)| f);
        let output = self.output_sites.iter().map(|&(_, f)| f);
        for fault in hidden.chain(output) {
            if let ResolvedSynapseFault::Byzantine(d) = fault {
                w.put_f64(d);
            }
        }
        w.into_bytes()
    }
}

/// The Tap adapter applying a compiled plan during a forward pass.
struct InjectorTap<'a> {
    plan: &'a CompiledPlan,
}

impl Tap for InjectorTap<'_> {
    fn pre_activation(&mut self, layer: usize, input: &[f64], sums: &mut [f64]) {
        for &(to, from, fault) in &self.plan.synapse_sites[layer] {
            match fault {
                ResolvedSynapseFault::Crash { weight } => {
                    // Remove the nominal contribution w_ji · y_i (the input
                    // already reflects any left-layer faults, matching the
                    // synchronous message-passing semantics).
                    sums[to] -= weight * input[from];
                }
                ResolvedSynapseFault::Byzantine(delta) => {
                    sums[to] += self.plan.clamp(delta);
                }
            }
        }
    }

    fn post_activation(&mut self, layer: usize, outputs: &mut [f64]) {
        for &(neuron, fault) in &self.plan.neuron_sites[layer] {
            let nominal = outputs[neuron];
            outputs[neuron] = self.plan.neuron_fault_value(fault, nominal, layer, neuron);
        }
    }

    fn output_sum(&mut self, last_out: &[f64], sum: &mut f64) {
        for &(from, fault) in &self.plan.output_sites {
            match fault {
                ResolvedSynapseFault::Crash { weight } => {
                    *sum -= weight * last_out[from];
                }
                ResolvedSynapseFault::Byzantine(delta) => {
                    *sum += self.plan.clamp(delta);
                }
            }
        }
    }
}

/// The BatchTap adapter applying a compiled plan to a whole batch: the same
/// fault semantics as [`InjectorTap`], applied per batch row. Site values
/// (e.g. the Random strategy's deterministic "arbitrary" value) depend only
/// on the site, exactly as in the scalar path, so a plan disturbs every
/// batch item identically to a scalar execution.
struct BatchInjectorTap<'a> {
    plan: &'a CompiledPlan,
}

impl BatchTap for BatchInjectorTap<'_> {
    fn pre_activation(&mut self, layer: usize, input: &Matrix, sums: &mut Matrix) {
        for &(to, from, fault) in &self.plan.synapse_sites[layer] {
            match fault {
                ResolvedSynapseFault::Crash { weight } => {
                    for b in 0..sums.rows() {
                        let removed = weight * input.get(b, from);
                        sums.set(b, to, sums.get(b, to) - removed);
                    }
                }
                ResolvedSynapseFault::Byzantine(delta) => {
                    let delta = self.plan.clamp(delta);
                    for b in 0..sums.rows() {
                        sums.set(b, to, sums.get(b, to) + delta);
                    }
                }
            }
        }
    }

    fn post_activation(&mut self, layer: usize, outputs: &mut Matrix) {
        for &(neuron, fault) in &self.plan.neuron_sites[layer] {
            for b in 0..outputs.rows() {
                let nominal = outputs.get(b, neuron);
                outputs.set(
                    b,
                    neuron,
                    self.plan.neuron_fault_value(fault, nominal, layer, neuron),
                );
            }
        }
    }

    fn output_sum(&mut self, last_out: &Matrix, sums: &mut [f64]) {
        for &(from, fault) in &self.plan.output_sites {
            match fault {
                ResolvedSynapseFault::Crash { weight } => {
                    for (b, s) in sums.iter_mut().enumerate() {
                        *s -= weight * last_out.get(b, from);
                    }
                }
                ResolvedSynapseFault::Byzantine(delta) => {
                    let delta = self.plan.clamp(delta);
                    for s in sums.iter_mut() {
                        *s += delta;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{NeuronSite, SynapseSite};
    use neurofail_nn::activation::Activation;
    use neurofail_nn::layer::DenseLayer;
    use neurofail_nn::network::Layer;
    use neurofail_tensor::Matrix;

    fn linear_net() -> Mlp {
        // 2 inputs -> 2 identity neurons -> output with weights [1, 2].
        Mlp::new(
            vec![Layer::Dense(DenseLayer::new(
                Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                vec![],
                Activation::Identity,
            ))],
            vec![1.0, 2.0],
            0.0,
        )
    }

    #[test]
    fn crash_neuron_zeroes_its_contribution() {
        let net = linear_net();
        let plan = InjectionPlan::crash([(0, 1)]);
        let c = CompiledPlan::compile(&plan, &net, 10.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        // Nominal: x0 + 2 x1 = 0.5 + 2·0.25 = 1.0; crashed neuron 1: 0.5.
        assert_eq!(net.forward(&[0.5, 0.25]), 1.0);
        assert_eq!(c.run(&net, &[0.5, 0.25], &mut ws), 0.5);
        assert_eq!(c.output_error(&net, &[0.5, 0.25], &mut ws), 0.5);
    }

    #[test]
    fn byzantine_values_are_clamped_to_capacity() {
        let net = linear_net();
        for (strategy, expected) in [
            (ByzantineStrategy::MaxPositive, 2.0),
            (ByzantineStrategy::MaxNegative, -2.0),
        ] {
            let plan = InjectionPlan::byzantine([(0, 0)], strategy);
            let c = CompiledPlan::compile(&plan, &net, 2.0).unwrap();
            let mut ws = Workspace::for_net(&net);
            // Output = v·1 + 2·x1, with x = [0, 0]: output = v.
            assert_eq!(c.run(&net, &[0.0, 0.0], &mut ws), expected);
        }
    }

    #[test]
    fn stuck_at_clamps() {
        let net = linear_net();
        let plan = InjectionPlan {
            neurons: vec![NeuronSite {
                layer: 0,
                neuron: 0,
                fault: NeuronFault::StuckAt(100.0),
            }],
            synapses: vec![],
        };
        let c = CompiledPlan::compile(&plan, &net, 1.5).unwrap();
        let mut ws = Workspace::for_net(&net);
        assert_eq!(c.run(&net, &[0.0, 0.0], &mut ws), 1.5);
    }

    #[test]
    fn oppose_nominal_flips_sign() {
        let net = linear_net();
        let plan = InjectionPlan::byzantine([(0, 0)], ByzantineStrategy::OpposeNominal);
        let c = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        // Nominal y0 = 0.5 > 0 → adversary sends −C = −1.
        assert_eq!(c.run(&net, &[0.5, 0.0], &mut ws), -1.0);
    }

    #[test]
    fn random_strategy_is_deterministic_and_bounded() {
        let net = linear_net();
        let plan =
            InjectionPlan::byzantine([(0, 0), (0, 1)], ByzantineStrategy::Random { seed: 5 });
        let c = CompiledPlan::compile(&plan, &net, 0.7).unwrap();
        let mut ws = Workspace::for_net(&net);
        let a = c.run(&net, &[0.3, 0.3], &mut ws);
        let b = c.run(&net, &[0.3, 0.3], &mut ws);
        assert_eq!(a, b);
        // |output| = |v0 + 2 v1| ≤ 0.7 + 1.4.
        assert!(a.abs() <= 2.1 + 1e-12);
    }

    #[test]
    fn byzantine_synapse_shifts_sum() {
        let net = linear_net();
        let plan = InjectionPlan {
            neurons: vec![],
            synapses: vec![
                SynapseSite {
                    target: SynapseTarget::Hidden {
                        layer: 0,
                        to: 0,
                        from: 1,
                    },
                    fault: SynapseFault::Byzantine(0.25),
                },
                SynapseSite {
                    target: SynapseTarget::Output { from: 0 },
                    fault: SynapseFault::Byzantine(-4.0), // clamped to −1
                },
            ],
        };
        let c = CompiledPlan::compile(&plan, &net, 1.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        // x = [0,0]: neuron 0 sum = 0 + 0.25 → y0 = 0.25; output = 0.25 − 1.
        assert_eq!(c.run(&net, &[0.0, 0.0], &mut ws), -0.75);
    }

    #[test]
    fn crash_synapse_removes_exact_contribution() {
        let net = linear_net();
        let plan = InjectionPlan {
            neurons: vec![],
            synapses: vec![
                SynapseSite {
                    target: SynapseTarget::Hidden {
                        layer: 0,
                        to: 1,
                        from: 1,
                    },
                    fault: SynapseFault::Crash,
                },
                SynapseSite {
                    target: SynapseTarget::Output { from: 0 },
                    fault: SynapseFault::Crash,
                },
            ],
        };
        let c = CompiledPlan::compile(&plan, &net, 10.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        // x = [0.5, 0.25]: hidden crash kills neuron 1's input (y1 = 0),
        // output crash kills w0·y0. Output = 0 + 2·0 = 0? y1 = x1 via
        // identity weight from input 1, crashed → y1 = 0; output synapse 0
        // crashed → output = 2·y1 = 0.
        assert_eq!(c.run(&net, &[0.5, 0.25], &mut ws), 0.0);
        // Crash of only the output synapse: output = 2·x1 = 0.5.
        let plan2 = InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Output { from: 0 },
                fault: SynapseFault::Crash,
            }],
        };
        let c2 = CompiledPlan::compile(&plan2, &net, 10.0).unwrap();
        assert_eq!(c2.run(&net, &[0.5, 0.25], &mut ws), 0.5);
    }

    #[test]
    fn compile_rejects_bad_sites() {
        let net = linear_net();
        assert!(matches!(
            CompiledPlan::compile(&InjectionPlan::crash([(0, 9)]), &net, 1.0),
            Err(PlanError::BadNeuron { .. })
        ));
        assert!(matches!(
            CompiledPlan::compile(&InjectionPlan::crash([(3, 0)]), &net, 1.0),
            Err(PlanError::BadNeuron { .. })
        ));
        assert!(matches!(
            CompiledPlan::compile(&InjectionPlan::crash([(0, 0), (0, 0)]), &net, 1.0),
            Err(PlanError::DuplicateNeuron { .. })
        ));
        let bad_syn = InjectionPlan {
            neurons: vec![],
            synapses: vec![SynapseSite {
                target: SynapseTarget::Output { from: 17 },
                fault: SynapseFault::Crash,
            }],
        };
        assert!(matches!(
            CompiledPlan::compile(&bad_syn, &net, 1.0),
            Err(PlanError::BadSynapse(_))
        ));
    }

    #[test]
    fn run_batch_matches_scalar_run_for_every_fault_kind() {
        let net = linear_net();
        let plans = vec![
            InjectionPlan::none(),
            InjectionPlan::crash([(0, 1)]),
            InjectionPlan::byzantine([(0, 0)], ByzantineStrategy::MaxNegative),
            InjectionPlan::byzantine([(0, 1)], ByzantineStrategy::OpposeNominal),
            InjectionPlan::byzantine([(0, 0), (0, 1)], ByzantineStrategy::Random { seed: 5 }),
            InjectionPlan {
                neurons: vec![NeuronSite {
                    layer: 0,
                    neuron: 0,
                    fault: NeuronFault::StuckAt(0.3),
                }],
                synapses: vec![
                    SynapseSite {
                        target: SynapseTarget::Hidden {
                            layer: 0,
                            to: 0,
                            from: 1,
                        },
                        fault: SynapseFault::Byzantine(0.25),
                    },
                    SynapseSite {
                        target: SynapseTarget::Hidden {
                            layer: 0,
                            to: 1,
                            from: 1,
                        },
                        fault: SynapseFault::Crash,
                    },
                    SynapseSite {
                        target: SynapseTarget::Output { from: 0 },
                        fault: SynapseFault::Crash,
                    },
                    SynapseSite {
                        target: SynapseTarget::Output { from: 1 },
                        fault: SynapseFault::Byzantine(-4.0),
                    },
                ],
            },
        ];
        let xs = Matrix::from_vec(4, 2, vec![0.5, 0.25, 0.0, 0.0, -0.3, 0.8, 1.0, -1.0]);
        let mut ws = Workspace::for_net(&net);
        let mut bws = BatchWorkspace::for_net(&net, 4);
        for plan in &plans {
            let c = CompiledPlan::compile(plan, &net, 1.0).unwrap();
            let batch = c.run_batch(&net, &xs, &mut bws);
            let errors = c.output_error_batch(&net, &xs, &mut bws);
            for b in 0..xs.rows() {
                let scalar = c.run(&net, xs.row(b), &mut ws);
                // Identity activations and ≤2-term sums: exact agreement.
                assert_eq!(batch[b], scalar, "plan {plan:?}, row {b}");
                let scalar_err = c.output_error(&net, xs.row(b), &mut ws);
                assert_eq!(errors[b], scalar_err, "plan {plan:?}, row {b}");
            }
        }
    }

    #[test]
    fn output_error_batch_handles_empty_batch() {
        let net = linear_net();
        let c = CompiledPlan::compile(&InjectionPlan::crash([(0, 0)]), &net, 1.0).unwrap();
        let mut bws = BatchWorkspace::default();
        assert!(c
            .output_error_batch(&net, &Matrix::zeros(0, 2), &mut bws)
            .is_empty());
    }

    #[test]
    fn empty_plan_is_identity() {
        let net = linear_net();
        let c = CompiledPlan::compile(&InjectionPlan::none(), &net, 1.0).unwrap();
        let mut ws = Workspace::for_net(&net);
        for x in [[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]] {
            assert_eq!(c.run(&net, &x, &mut ws), net.forward(&x));
            assert_eq!(c.output_error(&net, &x, &mut ws), 0.0);
        }
    }
}
