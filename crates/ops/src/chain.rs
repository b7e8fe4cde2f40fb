//! Static chain declarations — the ordered loop/exchange/swap sequence an
//! app driver materializes at runtime, written down once as data.
//!
//! A [`ChainSpec`] is where a structured app states each loop once, the
//! way an OPS `par_loop` call states its `ops_arg_dat`s: every
//! [`Step::Loop`] names its kernel and binds each output slot with its
//! [`Access`] and each input slot with its [`Stencil`].
//! [`ChainSpec::loop_specs`] derives the per-shape [`LoopSpec`]s every
//! analyzer consumes from those steps, so there is no second list of
//! contracts to keep in sync.
//!
//! The chain also declares what only a live run under
//! [`crate::access::with_recording_full`] would otherwise reveal: *in what
//! order* the kernels fire, which buffers rotate under `mem::swap`, and
//! where halo exchanges interleave. Extents and iteration ranges are
//! linear [`Expr`]s over named parameters like `n`, `nx`, so
//! [`ChainSpec::instantiate`] synthesizes the exact
//! [`crate::access::Recording`] a run *would* produce without executing a
//! single kernel. The dataflow analyzer derives fusion / NT
//! certificates from that synthetic recording, and `dslcheck` validates
//! the declaration by comparing a recorded run against the same
//! instantiation, loop for loop and exchange for exchange.
//!
//! Buffer rotation is modelled faithfully: datasets are referred to by
//! *slot index*, and a [`Step::Swap`] swaps the runtime names two slots
//! currently carry — exactly what `std::mem::swap` on two `Dat2`/`Dat3`
//! handles does to the observed names in a real recording.

use crate::access::{Access, ArgObs, ArgSpec, ExchangeObs, LoopObs, LoopSpec, Recording, Stencil};
use std::collections::BTreeSet;
use std::fmt;

// ---------------------------------------------------------------------------
// Parametric integer expressions
// ---------------------------------------------------------------------------

/// A small linear integer expression over named parameters:
/// `konst + Σ coeff·param`. Rich enough for every structured app's
/// geometry (`n`, `n+1`, `nx+2·radius`, …) while staying trivially
/// evaluable and printable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    pub konst: isize,
    pub terms: Vec<(&'static str, isize)>,
}

impl Expr {
    /// A constant.
    pub fn c(k: isize) -> Self {
        Expr {
            konst: k,
            terms: Vec::new(),
        }
    }

    /// A bare parameter.
    pub fn p(name: &'static str) -> Self {
        Expr {
            konst: 0,
            terms: vec![(name, 1)],
        }
    }

    /// `param + k`.
    pub fn p_plus(name: &'static str, k: isize) -> Self {
        Expr {
            konst: k,
            terms: vec![(name, 1)],
        }
    }

    /// Evaluate under a binding; every referenced parameter must be bound.
    pub fn eval(&self, b: &Binding) -> Result<isize, ChainError> {
        let mut v = self.konst;
        for &(name, coeff) in &self.terms {
            let p = b
                .get(name)
                .ok_or_else(|| ChainError::UnboundParam(name.to_string()))?;
            v += coeff * p;
        }
        Ok(v)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(name, coeff) in &self.terms {
            if !first {
                f.write_str(" + ")?;
            }
            first = false;
            if coeff == 1 {
                write!(f, "{name}")?;
            } else {
                write!(f, "{coeff}·{name}")?;
            }
        }
        if self.konst != 0 || first {
            if !first {
                f.write_str(" + ")?;
            }
            write!(f, "{}", self.konst)?;
        }
        Ok(())
    }
}

/// Concrete values for a chain's parameters.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    pairs: Vec<(&'static str, isize)>,
}

impl Binding {
    pub fn new() -> Self {
        Binding::default()
    }

    pub fn set(mut self, name: &'static str, v: isize) -> Self {
        self.pairs.retain(|(n, _)| *n != name);
        self.pairs.push((name, v));
        self
    }

    pub fn get(&self, name: &str) -> Option<isize> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

// ---------------------------------------------------------------------------
// Chain structure
// ---------------------------------------------------------------------------

/// One declared dataset slot: the buffer's initial runtime name plus the
/// geometry every observation of it carries.
#[derive(Debug, Clone)]
pub struct DatDecl {
    /// Initial runtime name (rotates under [`Step::Swap`]); also the role
    /// name of every loop argument bound to this slot.
    pub name: &'static str,
    /// Halo ring depth.
    pub halo: isize,
    /// Interior extent `(nx, ny, nz)`; use `Expr::c(1)` for the z extent of
    /// 2-D datasets.
    pub extent: [Expr; 3],
    /// `size_of::<T>()` of the element type.
    pub elem_bytes: usize,
}

/// One step of the declared chain.
// Chains are declared once per app and instantiated rarely; keeping `Loop`
// unboxed keeps the hundreds of declaration sites literal.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Step {
    /// A `par_loop` invocation and its access contract: the kernel name,
    /// its dimensionality, iteration range, and the dataset slots bound to
    /// its output/input arguments in driver-call order — each output with
    /// its [`Access`], each input with its [`Stencil`].
    Loop {
        name: &'static str,
        dims: u8,
        /// `[i0, i1, j0, j1, k0, k1]`; use `Expr::c(0)`/`Expr::c(1)` for the
        /// k span of 2-D loops.
        range: [Expr; 6],
        outs: Vec<(usize, Access)>,
        ins: Vec<(usize, Stencil)>,
    },
    /// A site-labelled halo exchange of one dataset slot.
    Exchange {
        dat: usize,
        depth: usize,
        /// Call-site label; empty for the unlabelled exchange API.
        site: &'static str,
    },
    /// `std::mem::swap` of two dataset handles: the slots swap runtime
    /// names from here on.
    Swap { a: usize, b: usize },
}

/// Why a chain could not be instantiated or fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// An [`Expr`] referenced a parameter the [`Binding`] does not define.
    UnboundParam(String),
    /// A step referenced a dataset slot outside `dats`.
    BadSlot { step: usize, slot: usize },
    /// A `Loop` step restates a `(name, #outs, #ins)` shape with a
    /// different access contract than the shape's first occurrence.
    ContractConflict {
        step: usize,
        name: String,
        detail: String,
    },
    /// A declared extent or range evaluated to a negative/absurd value.
    BadGeometry { step: usize, detail: String },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnboundParam(p) => write!(f, "unbound chain parameter {p:?}"),
            ChainError::BadSlot { step, slot } => {
                write!(f, "step {step} references dataset slot {slot} out of range")
            }
            ChainError::ContractConflict { step, name, detail } => write!(
                f,
                "step {step}: loop {name:?} restates its shape with a different contract: {detail}"
            ),
            ChainError::BadGeometry { step, detail } => {
                write!(f, "step {step}: bad geometry: {detail}")
            }
        }
    }
}

/// The declared loop chain of one app variant: datasets, a prologue run
/// once, a body repeated per iteration, and an epilogue run once.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Registry app name this chain describes (e.g. `"acoustic"`).
    pub app: &'static str,
    pub dats: Vec<DatDecl>,
    /// Steps executed once before the iteration loop.
    pub prologue: Vec<Step>,
    /// Steps executed once per iteration.
    pub body: Vec<Step>,
    /// Steps executed once after the iteration loop (reductions, summaries).
    pub epilogue: Vec<Step>,
}

impl ChainSpec {
    /// Every step in declaration order: prologue, body, epilogue.
    fn steps(&self) -> impl Iterator<Item = &Step> {
        self.prologue.iter().chain(&self.body).chain(&self.epilogue)
    }

    fn slot_name(&self, slot: usize) -> &'static str {
        self.dats.get(slot).map_or("?", |d| d.name)
    }

    /// The loop contracts the steps state: one [`LoopSpec`] per
    /// `(name, #outs, #ins)` shape, in first-occurrence order, each
    /// argument named after the slot it was declared with. A shape's later
    /// occurrences restate the same contract ([`ChainSpec::validate`]
    /// refuses one that does not), so the first one speaks for all.
    pub fn loop_specs(&self) -> Vec<LoopSpec> {
        let mut specs: Vec<LoopSpec> = Vec::new();
        for step in self.steps() {
            let Step::Loop {
                name, outs, ins, ..
            } = step
            else {
                continue;
            };
            if LoopSpec::find(&specs, name, outs.len(), ins.len()).is_none() {
                specs.push(LoopSpec::new(
                    name,
                    outs.iter()
                        .map(|&(s, access)| {
                            ArgSpec::new(self.slot_name(s), access, Stencil::point())
                        })
                        .collect(),
                    ins.iter()
                        .map(|(s, stencil)| ArgSpec::read(self.slot_name(*s), stencil.clone()))
                        .collect(),
                ));
            }
        }
        specs
    }

    /// Structural validation: every referenced slot must exist, every loop
    /// must be 2- or 3-D, and every occurrence of a loop shape must state
    /// the same contract. Returns all problems, not just the first — an
    /// underspecified chain should report everything wrong with it at once.
    pub fn validate(&self) -> Vec<ChainError> {
        let mut errs = Vec::new();
        let nslots = self.dats.len();
        let specs = self.loop_specs();
        for (i, step) in self.steps().enumerate() {
            match step {
                Step::Loop {
                    name,
                    dims,
                    outs,
                    ins,
                    ..
                } => {
                    let slots = outs.iter().map(|o| o.0).chain(ins.iter().map(|a| a.0));
                    for s in slots.filter(|&s| s >= nslots) {
                        errs.push(ChainError::BadSlot { step: i, slot: s });
                    }
                    if !(*dims == 2 || *dims == 3) {
                        errs.push(ChainError::BadGeometry {
                            step: i,
                            detail: format!("dims must be 2 or 3, got {dims}"),
                        });
                    }
                    let spec = LoopSpec::find(&specs, name, outs.len(), ins.len())
                        .expect("derived from these steps");
                    let out_conflict = outs
                        .iter()
                        .zip(&spec.outs)
                        .position(|(o, s)| o.1 != s.access)
                        .map(|k| format!("out {k} {} vs {}", outs[k].1, spec.outs[k].access));
                    let in_conflict = ins
                        .iter()
                        .zip(&spec.ins)
                        .position(|(a, s)| a.1 != s.stencil)
                        .map(|k| format!("in {k} stencil differs"));
                    if let Some(detail) = out_conflict.or(in_conflict) {
                        errs.push(ChainError::ContractConflict {
                            step: i,
                            name: (*name).to_string(),
                            detail,
                        });
                    }
                }
                Step::Exchange { dat, .. } => {
                    if *dat >= nslots {
                        errs.push(ChainError::BadSlot {
                            step: i,
                            slot: *dat,
                        });
                    }
                }
                Step::Swap { a, b } => {
                    for &s in [a, b] {
                        if s >= nslots {
                            errs.push(ChainError::BadSlot { step: i, slot: s });
                        }
                    }
                }
            }
        }
        errs
    }

    /// Symbolically execute the chain: `prologue · body^iters · epilogue`,
    /// tracking the runtime name each slot carries across swaps, and emit
    /// the [`Recording`] a live run would produce. No kernel executes; the
    /// synthetic observations carry the declared geometry, `wrote = true`
    /// for outputs (the declared-access refinement in the def-use graph
    /// supplies `ReadWrite`/`Inc` semantics from the derived spec), and
    /// empty observed-offset sets (input radii come from declared
    /// stencils).
    pub fn instantiate(&self, b: &Binding, iters: usize) -> Result<Recording, ChainError> {
        let mut names: Vec<String> = self.dats.iter().map(|d| d.name.to_string()).collect();
        let mut rec = Recording::default();

        let mut geom = Vec::with_capacity(self.dats.len());
        for d in &self.dats {
            let ex = (
                eval_extent(&d.extent[0], b)?,
                eval_extent(&d.extent[1], b)?,
                eval_extent(&d.extent[2], b)?,
            );
            geom.push(ex);
        }

        let run = |steps: &[Step], rec: &mut Recording, names: &mut Vec<String>| {
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Loop {
                        name,
                        dims,
                        range,
                        outs,
                        ins,
                    } => {
                        let mut r = [0isize; 6];
                        for (k, e) in range.iter().enumerate() {
                            r[k] = e.eval(b)?;
                        }
                        let obs = |slot: usize| -> Result<ArgObs, ChainError> {
                            let d = self
                                .dats
                                .get(slot)
                                .ok_or(ChainError::BadSlot { step: i, slot })?;
                            Ok(ArgObs {
                                name: names[slot].clone(),
                                halo: d.halo,
                                extent: geom[slot],
                                elem_bytes: d.elem_bytes,
                                offsets: BTreeSet::new(),
                                wrote: false,
                                read_back: false,
                                inced: false,
                            })
                        };
                        let mut lo = LoopObs {
                            name: (*name).to_string(),
                            dims: *dims,
                            range: r,
                            outs: Vec::with_capacity(outs.len()),
                            ins: Vec::with_capacity(ins.len()),
                        };
                        for &(s, _) in outs {
                            let mut o = obs(s)?;
                            o.wrote = true;
                            lo.outs.push(o);
                        }
                        for (s, _) in ins {
                            lo.ins.push(obs(*s)?);
                        }
                        rec.loops.push(lo);
                    }
                    Step::Exchange { dat, depth, site } => {
                        let name = names
                            .get(*dat)
                            .ok_or(ChainError::BadSlot {
                                step: i,
                                slot: *dat,
                            })?
                            .clone();
                        rec.exchanges.push(ExchangeObs {
                            dat: name,
                            depth: *depth,
                            at: rec.loops.len(),
                            site: (*site).to_string(),
                        });
                    }
                    Step::Swap { a, b: bb } => {
                        if *a >= names.len() || *bb >= names.len() {
                            return Err(ChainError::BadSlot {
                                step: i,
                                slot: (*a).max(*bb),
                            });
                        }
                        names.swap(*a, *bb);
                    }
                }
            }
            Ok(())
        };

        run(&self.prologue, &mut rec, &mut names)?;
        for _ in 0..iters {
            run(&self.body, &mut rec, &mut names)?;
        }
        run(&self.epilogue, &mut rec, &mut names)?;
        Ok(rec)
    }
}

fn eval_extent(e: &Expr, b: &Binding) -> Result<usize, ChainError> {
    let v = e.eval(b)?;
    usize::try_from(v).map_err(|_| ChainError::BadGeometry {
        step: usize::MAX,
        detail: format!("extent {e} evaluated to {v}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> [Expr; 6] {
        [
            Expr::c(0),
            Expr::p("n"),
            Expr::c(0),
            Expr::p("n"),
            Expr::c(0),
            Expr::c(1),
        ]
    }

    fn toy_chain() -> ChainSpec {
        let dat = |name| DatDecl {
            name,
            halo: 1,
            extent: [Expr::p("n"), Expr::p("n"), Expr::c(1)],
            elem_bytes: 8,
        };
        ChainSpec {
            app: "toy",
            dats: vec![dat("u"), dat("v")],
            prologue: vec![],
            body: vec![
                Step::Exchange {
                    dat: 0,
                    depth: 1,
                    site: "pre",
                },
                Step::Loop {
                    name: "toy_step",
                    dims: 2,
                    range: square(),
                    outs: vec![(1, Access::Write)],
                    ins: vec![(0, Stencil::plus2(1))],
                },
                Step::Swap { a: 0, b: 1 },
            ],
            epilogue: vec![],
        }
    }

    #[test]
    fn instantiation_tracks_swaps_and_exchange_positions() {
        let c = toy_chain();
        let rec = c
            .instantiate(&Binding::new().set("n", 8), 2)
            .expect("instantiate");
        assert_eq!(rec.loops.len(), 2);
        assert_eq!(rec.exchanges.len(), 2);
        // Iteration 1 writes "v" reading "u"; after the swap, iteration 2
        // writes "u" reading "v" — name rotation under mem::swap.
        assert_eq!(rec.loops[0].outs[0].name, "v");
        assert_eq!(rec.loops[0].ins[0].name, "u");
        assert_eq!(rec.loops[1].outs[0].name, "u");
        assert_eq!(rec.loops[1].ins[0].name, "v");
        // Exchanges sit before their iteration's loop and follow rotation.
        assert_eq!(rec.exchanges[0].at, 0);
        assert_eq!(rec.exchanges[0].dat, "u");
        assert_eq!(rec.exchanges[1].at, 1);
        assert_eq!(rec.exchanges[1].dat, "v");
        assert_eq!(rec.loops[0].range, [0, 8, 0, 8, 0, 1]);
        assert_eq!(rec.loops[0].outs[0].extent, (8, 8, 1));
        assert!(rec.loops[0].outs[0].wrote);
        assert!(!rec.loops[0].ins[0].wrote);
    }

    #[test]
    fn derived_specs_have_one_entry_per_shape_named_by_slot() {
        let mut c = toy_chain();
        // A second occurrence of the same shape, and the same kernel name
        // at another arity: two specs, not three.
        c.epilogue = vec![
            Step::Loop {
                name: "toy_step",
                dims: 2,
                range: square(),
                outs: vec![(0, Access::Write)],
                ins: vec![(1, Stencil::plus2(1))],
            },
            Step::Loop {
                name: "toy_step",
                dims: 2,
                range: square(),
                outs: vec![(0, Access::ReadWrite)],
                ins: vec![],
            },
        ];
        assert!(c.validate().is_empty(), "{:?}", c.validate());
        let specs = c.loop_specs();
        assert_eq!(specs.len(), 2);
        let step = LoopSpec::find(&specs, "toy_step", 1, 1).expect("(1, 1) shape");
        assert_eq!(step.outs[0].name, "v");
        assert_eq!(step.outs[0].access, Access::Write);
        assert_eq!(step.ins[0].name, "u");
        assert_eq!(step.ins[0].access, Access::Read);
        assert_eq!(step.ins[0].stencil, Stencil::plus2(1));
        let in_place = LoopSpec::find(&specs, "toy_step", 1, 0).expect("(1, 0) shape");
        assert_eq!(in_place.outs[0].access, Access::ReadWrite);
    }

    #[test]
    fn validate_refuses_a_shape_stated_with_two_contracts() {
        let restated = |outs, ins| {
            let mut c = toy_chain();
            c.epilogue.push(Step::Loop {
                name: "toy_step",
                dims: 2,
                range: square(),
                outs,
                ins,
            });
            c.validate()
        };
        let errs = restated(vec![(0, Access::ReadWrite)], vec![(1, Stencil::plus2(1))]);
        assert_eq!(
            errs,
            vec![ChainError::ContractConflict {
                step: 3,
                name: "toy_step".into(),
                detail: "out 0 ReadWrite vs Write".into(),
            }]
        );
        let errs = restated(vec![(0, Access::Write)], vec![(1, Stencil::point())]);
        assert!(
            matches!(&errs[..], [ChainError::ContractConflict { step: 3, .. }]),
            "{errs:?}"
        );
    }

    #[test]
    fn validate_flags_bad_slots() {
        let mut c = toy_chain();
        c.body.push(Step::Swap { a: 0, b: 9 });
        assert_eq!(c.validate(), vec![ChainError::BadSlot { step: 3, slot: 9 }]);
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let c = toy_chain();
        let err = c.instantiate(&Binding::new(), 1).unwrap_err();
        assert_eq!(err, ChainError::UnboundParam("n".to_string()));
    }
}
