//! The 2-safety product and the UPEC-SSC property macros.
//!
//! Three layers build on each other:
//!
//! * [`ProductArtifact`] — the **scenario-independent** half of an
//!   analysis: the source netlist instantiated **twice** inside one product
//!   netlist (instances `a` and `b`), the shared symbolic protected-range
//!   base, and the resolved victim-port/device signals. Built once per
//!   design (one per SoC size in a portfolio) and `Arc`-shared by every
//!   scenario analysis of that design.
//! * [`UpecAnalysis`] — a *thin binding* of a [`UpecSpec`] to a shared
//!   artifact ([`UpecAnalysis::bind`]): the spec-dependent pieces
//!   (firmware constraints, spying-IP restrictions, quiesced IPs,
//!   persistence policy) are validated here, never inside product
//!   construction.
//! * [`SessionPrefix`] / [`Session`] — the proof sessions. A prefix holds
//!   everything scenario-independent *and already encoded into the
//!   solver*: the unrolled cycles, the per-cycle input-equality and
//!   victim macros (Fig. 3's `Primary_Input_Constraints` and
//!   `Victim_Task_Executing`), the range-alignment validity and the
//!   per-atom state-equality cones. [`SessionPrefix::fork`] snapshots it
//!   (copy-on-write session forking via [`Ipc::fork`]), and
//!   [`Session::with_prefix`] binds a fork to one scenario by adding only
//!   the scenario's own assumptions on top.
//!
//! A session also carries the difference layer of each cycle the
//! procedures have grown it to (see [`crate::difference`]): implied
//! clauses over `XOR(x_a, x_b)` node pairs, so that unit propagation
//! proves "equal fan-ins give an equal output" for every CNF gate of the
//! two instances. Only pairs where a node already owns a solver variable
//! get an XOR node; the ANDs inside a MUX/XOR gate or an AND tree stay
//! transparent, so the layer keeps the gate-level encoding. A prefix never
//! has one: [`SessionPrefix::build`] stays the shared, layer-free set-up,
//! and forks add the layer per cell.

use std::collections::HashMap;
use std::sync::Arc;

use ssc_aig::fx::{FxHashMap, FxHashSet};
use ssc_aig::words::{self, Word};
use ssc_aig::AigRef;
use ssc_ipc::{Ipc, PropertyResult};
use ssc_netlist::{ImportMap, MemId, Netlist, Node, Wire};
use ssc_sat::Lit;

use crate::atoms::{self, AtomSet, StateAtom};
use crate::difference::{self, DifferenceLayer};
use crate::report::{AtomDiff, CexCycle, Counterexample, PortActivity};
use crate::spec::{DeviceMap, FirmwareConstraint, IpPort, UpecSpec, VictimPort};

/// Instance selector within the product.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instance {
    /// Instance `a`.
    A,
    /// Instance `b`.
    B,
}

#[derive(Clone, Copy, Debug)]
struct PortSrc {
    req: Wire,
    addr: Wire,
    we: Wire,
    wdata: Wire,
}

/// The scenario-independent product of one design: source netlist,
/// 2-safety product, import maps and resolved victim-port/device signals.
///
/// Build once per design ([`ProductArtifact::build`]), wrap in an [`Arc`]
/// and [`UpecAnalysis::bind`] every scenario of a portfolio to the same
/// artifact — the product netlist (the expensive double instantiation) is
/// then constructed once instead of once per scenario.
pub struct ProductArtifact {
    src: Netlist,
    product: Netlist,
    map_a: ImportMap,
    map_b: ImportMap,
    prot_base: Wire,
    /// Source-netlist port wires (inputs).
    port_src: PortSrc,
    /// Victim-allocatable device base per source memory.
    device_base: HashMap<MemId, u64>,
    /// The port names the artifact was resolved with (bind-time check).
    port: VictimPort,
    /// The device maps the artifact was resolved with (bind-time check).
    devices: Vec<DeviceMap>,
}

impl std::fmt::Debug for ProductArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProductArtifact")
            .field("design", &self.src.name())
            .field("product_nodes", &self.product.num_nodes())
            .finish()
    }
}

impl ProductArtifact {
    /// Builds the 2-safety product for `src`, resolving the victim `port`
    /// and the victim-allocatable `devices`.
    ///
    /// # Errors
    ///
    /// Returns a message if the port signals are not free inputs (i.e. the
    /// netlist is not a verification view) or a device memory does not
    /// exist.
    pub fn build(
        src: &Netlist,
        port: &VictimPort,
        devices: &[DeviceMap],
    ) -> Result<ProductArtifact, String> {
        let find_input = |name: &str| -> Result<Wire, String> {
            let w = src
                .find(name)
                .ok_or_else(|| format!("port signal `{name}` not found"))?;
            match src.node(w.id()) {
                Node::Input { .. } => Ok(w),
                _ => Err(format!(
                    "port signal `{name}` is not a free input — use the verification view"
                )),
            }
        };
        let port_src = PortSrc {
            req: find_input(&port.req)?,
            addr: find_input(&port.addr)?,
            we: find_input(&port.we)?,
            wdata: find_input(&port.wdata)?,
        };
        let mut device_base = HashMap::new();
        for dev in devices {
            let mem = src
                .find_mem(&dev.mem_name)
                .ok_or_else(|| format!("device memory `{}` not found", dev.mem_name))?;
            device_base.insert(mem, dev.base);
        }

        let mut product = Netlist::new(format!("{}_upec_product", src.name()));
        let map_a = product.import(src, "a");
        let map_b = product.import(src, "b");
        let prot_base = product.input("prot_base", 32);
        product.check().map_err(|e| format!("product netlist invalid: {e}"))?;

        Ok(ProductArtifact {
            src: src.clone(),
            product,
            map_a,
            map_b,
            prot_base,
            port_src,
            device_base,
            port: port.clone(),
            devices: devices.to_vec(),
        })
    }

    /// [`ProductArtifact::build`] with the port/devices taken from `spec`
    /// (the artifact-relevant subset — the rest of the spec is not needed
    /// until [`UpecAnalysis::bind`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ProductArtifact::build`].
    pub fn for_spec(src: &Netlist, spec: &UpecSpec) -> Result<ProductArtifact, String> {
        ProductArtifact::build(src, &spec.port, &spec.devices)
    }

    /// The design under verification (single instance).
    pub fn src(&self) -> &Netlist {
        &self.src
    }

    /// The 2-safety product netlist.
    pub fn product(&self) -> &Netlist {
        &self.product
    }

    fn map(&self, inst: Instance) -> &ImportMap {
        match inst {
            Instance::A => &self.map_a,
            Instance::B => &self.map_b,
        }
    }

    /// The source netlist's primary inputs other than the victim port's,
    /// with their names. `Primary_Input_Constraints` only makes them equal
    /// in both instances; the solver picks their values.
    fn free_inputs(&self) -> Vec<(Wire, &str)> {
        let p = self.port_src;
        let port = [p.req.id(), p.addr.id(), p.we.id(), p.wdata.id()];
        self.src
            .iter_nodes()
            .filter_map(|(id, node)| match node {
                Node::Input { name, .. } if !port.contains(&id) => {
                    Some((self.src.wire_of(id), name.as_str()))
                }
                _ => None,
            })
            .collect()
    }
}

/// A UPEC-SSC analysis context: a (possibly shared) [`ProductArtifact`]
/// bound to one [`UpecSpec`].
///
/// Create with [`UpecAnalysis::new`] (builds a private artifact) or
/// [`UpecAnalysis::bind`] (shares an existing one across scenarios), then
/// run [`UpecAnalysis::alg1`] / [`UpecAnalysis::alg2`] (see
/// `procedure.rs`).
pub struct UpecAnalysis {
    art: Arc<ProductArtifact>,
    spec: UpecSpec,
}

impl std::fmt::Debug for UpecAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpecAnalysis")
            .field("design", &self.art.src.name())
            .field("product_nodes", &self.art.product.num_nodes())
            .finish()
    }
}

impl UpecAnalysis {
    /// Builds a private 2-safety product for `src` and binds `spec` to it.
    ///
    /// For a portfolio of scenarios over one design, build the product once
    /// with [`ProductArtifact::build`] and use [`UpecAnalysis::bind`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec references signals/memories that do
    /// not exist, or the port signals are not free inputs (i.e. the netlist
    /// is not a verification view).
    pub fn new(src: &Netlist, spec: UpecSpec) -> Result<Self, String> {
        let art = Arc::new(ProductArtifact::for_spec(src, &spec)?);
        UpecAnalysis::bind(art, spec)
    }

    /// Binds `spec` to a shared artifact, validating only the
    /// spec-dependent pieces (firmware constraints, spying-IP ports,
    /// quiesced IPs) — the artifact already resolved the port and devices.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec's port/devices differ from the ones
    /// the artifact was built with, or a spec-referenced signal does not
    /// exist in the design.
    pub fn bind(art: Arc<ProductArtifact>, spec: UpecSpec) -> Result<Self, String> {
        if spec.port != art.port {
            return Err("spec victim port differs from the artifact's".into());
        }
        if spec.devices != art.devices {
            return Err("spec device maps differ from the artifact's".into());
        }
        let src = &art.src;
        for c in &spec.constraints {
            if let FirmwareConstraint::RegOutsideDevice { reg, .. } = c {
                src.find(reg)
                    .ok_or_else(|| format!("constraint register `{reg}` not found"))?;
            }
        }
        for ip in &spec.ip_ports {
            for name in [&ip.req, &ip.addr] {
                src.find(name)
                    .ok_or_else(|| format!("IP port signal `{name}` not found"))?;
            }
        }
        for name in &spec.quiesced_ips {
            let w = src
                .find(name)
                .ok_or_else(|| format!("quiesced IP flag `{name}` not found"))?;
            if !matches!(src.node(w.id()), Node::Reg(_)) {
                return Err(format!("quiesced IP flag `{name}` must be a register"));
            }
        }
        Ok(UpecAnalysis { art, spec })
    }

    /// The shared product artifact this analysis is bound to.
    pub fn artifact(&self) -> &Arc<ProductArtifact> {
        &self.art
    }

    /// The design under verification (single instance).
    pub fn src(&self) -> &Netlist {
        &self.art.src
    }

    /// The 2-safety product netlist.
    pub fn product(&self) -> &Netlist {
        &self.art.product
    }

    /// The specification.
    pub fn spec(&self) -> &UpecSpec {
        &self.spec
    }

    /// Compiles `S_not_victim` (paper Def. 1).
    pub fn s_not_victim(&self) -> AtomSet {
        atoms::not_victim_atoms(&self.art.src)
    }

    /// Compiles `S_pers` (paper Def. 2) under the spec's policy.
    pub fn s_pers(&self) -> AtomSet {
        self.spec.persistence.pers_atoms(&self.art.src)
    }

    /// Is `atom` persistent under the spec's policy?
    pub fn is_persistent(&self, atom: StateAtom) -> bool {
        self.spec.persistence.is_persistent(&self.art.src, atom)
    }

    /// Human-readable atom name.
    pub fn atom_name(&self, atom: StateAtom) -> String {
        atoms::atom_name(&self.art.src, atom)
    }
}

/// One assumption ledger of a session: AIG refs, their pre-encoded solver
/// literals, and per-window offsets (`offsets[w]` bounds the prefix valid
/// for a `w`-transition window; `offsets[0]` ends the window-invariant
/// block).
#[derive(Clone, Default)]
struct Ledger {
    refs: Vec<AigRef>,
    lits: Vec<Lit>,
    offsets: Vec<usize>,
}

impl Ledger {
    fn window(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

/// The scenario-independent shared core of a prefix: everything beyond the
/// artifact that the shared macros depend on. Scenarios bound to the same
/// prefix must agree on it ([`Session::with_prefix`] asserts this).
#[derive(Clone)]
struct PrefixCore {
    range_mask: u64,
    ip_ports: Vec<IpPort>,
}

/// The shared, already-encoded prefix of a proof session: product
/// unrolling, range-alignment validity, per-cycle input-equality and
/// victim macros, and the per-atom state-equality cones for every
/// `S_not_victim` atom — all scenario-independent, all Tseitin-encoded
/// into the prefix's solver at construction time.
///
/// Build once per design/size ([`SessionPrefix::build`]), then
/// [`SessionPrefix::fork`] per scenario: a fork snapshots the AIG, the
/// node→variable table and the solver (see [`Ipc::fork`]) so the shared
/// encoding work is paid exactly once, and every scenario's [`Session`]
/// starts from it instead of re-encoding four (or forty) times.
pub struct SessionPrefix<'p> {
    ipc: Ipc<'p>,
    art: &'p ProductArtifact,
    core: PrefixCore,
    /// Shared standing assumptions: alignment validity (invariant block),
    /// then one input-eq + victim-macro block per unrolled cycle.
    shared: Ledger,
    /// `(atom, t)` → guarded equality term, shared by every check that
    /// mentions the atom at that time.
    eq_terms: FxHashMap<(StateAtom, usize), AigRef>,
    /// The atom universe whose equality terms are pre-built per time step.
    universe: AtomSet,
    /// Cycles whose difference layer is in the solver (cycles `0..n`).
    diff_cycles: usize,
}

impl std::fmt::Debug for SessionPrefix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPrefix")
            .field("design", &self.art.src.name())
            .field("window", &self.window())
            .field("encoded_nodes", &self.ipc.encoded_nodes())
            .finish()
    }
}

impl<'p> SessionPrefix<'p> {
    /// Builds and encodes the shared prefix for `window` transitions. The
    /// scenario-independent core (range mask, spying-IP ports) is taken
    /// from `spec`; any scenario later bound to this prefix must agree on
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a message if a spying-IP port signal does not exist in the
    /// design.
    pub fn build(
        art: &'p ProductArtifact,
        spec: &UpecSpec,
        window: usize,
    ) -> Result<SessionPrefix<'p>, String> {
        Self::build_on(Ipc::new(&art.product), art, spec, window)
    }

    /// [`SessionPrefix::build`] on a certifying checker (see
    /// [`Ipc::certifying`]): every learnt clause and every check's answer
    /// in the prefix and in every session forked from it is verified by
    /// an independent RUP checker. Tests use it; production sessions do not
    /// certify.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SessionPrefix::build`].
    pub fn build_certifying(
        art: &'p ProductArtifact,
        spec: &UpecSpec,
        window: usize,
    ) -> Result<SessionPrefix<'p>, String> {
        Self::build_on(Ipc::certifying(&art.product), art, spec, window)
    }

    fn build_on(
        ipc: Ipc<'p>,
        art: &'p ProductArtifact,
        spec: &UpecSpec,
        window: usize,
    ) -> Result<SessionPrefix<'p>, String> {
        for ip in &spec.ip_ports {
            for name in [&ip.req, &ip.addr] {
                art.src
                    .find(name)
                    .ok_or_else(|| format!("IP port signal `{name}` not found"))?;
            }
        }
        let mut p = SessionPrefix {
            ipc,
            art,
            core: PrefixCore {
                range_mask: spec.range_mask,
                ip_ports: spec.ip_ports.clone(),
            },
            shared: Ledger::default(),
            eq_terms: FxHashMap::default(),
            universe: atoms::not_victim_atoms(&art.src),
            diff_cycles: 0,
        };
        let inv = p.alignment_validity();
        p.push_shared_block(inv);
        p.build_eq_terms(0);
        p.ensure_window(window.max(1));
        Ok(p)
    }

    /// Forks the prefix into an independent snapshot (see [`Ipc::fork`]):
    /// the encoded shared formula, every cached term and all solver state
    /// carry over; the fork and the original diverge freely from here on.
    pub fn fork(&self) -> SessionPrefix<'p> {
        SessionPrefix {
            ipc: self.ipc.fork(),
            art: self.art,
            core: self.core.clone(),
            shared: self.shared.clone(),
            eq_terms: self.eq_terms.clone(),
            universe: self.universe.clone(),
            diff_cycles: self.diff_cycles,
        }
    }

    /// The number of transitions the prefix currently supports.
    pub fn window(&self) -> usize {
        self.shared.window()
    }

    /// Cumulative count of AIG nodes that own a solver variable (see
    /// [`Ipc::encoded_nodes`]).
    pub fn encoded_nodes(&self) -> usize {
        self.ipc.encoded_nodes()
    }

    /// Grows the shared prefix to `window` transitions: unrolls the new
    /// cycles, appends their input-eq + victim-macro blocks and pre-builds
    /// the new time step's state-equality terms — everything encoded
    /// eagerly so later forks inherit it.
    pub fn ensure_window(&mut self, window: usize) {
        self.ipc.unroller_mut().ensure_cycle(window.saturating_sub(1));
        while self.shared.window() < window {
            let cycle = self.shared.window();
            let mut block = self.input_eq(cycle);
            block.extend(self.victim_macro(cycle));
            self.push_shared_block(block);
            self.build_eq_terms(cycle + 1);
        }
    }

    /// Appends one block of shared assumptions, encoding each literal.
    fn push_shared_block(&mut self, refs: Vec<AigRef>) {
        for r in refs {
            let lit = self.ipc.lit_of(r);
            self.shared.refs.push(r);
            self.shared.lits.push(lit);
        }
        self.shared.offsets.push(self.shared.refs.len());
    }

    /// Pre-builds (and encodes) the equality term of every universe atom at
    /// time `t`.
    fn build_eq_terms(&mut self, t: usize) {
        let atoms: Vec<StateAtom> = self.universe.iter().copied().collect();
        for atom in atoms {
            let term = self.atom_eq_term(atom, t);
            let _ = self.ipc.lit_of(term);
        }
    }

    /// See [`Session::difference_layer`].
    fn difference_layer(&mut self, cycle: usize) -> DifferenceLayer {
        assert!(cycle < self.window(), "cycle {cycle} is outside the window");
        let mut roots = Vec::new();
        for &atom in &self.universe {
            let a = self.atom_word(Instance::A, atom, cycle + 1);
            let b = self.atom_word(Instance::B, atom, cycle + 1);
            roots.extend(a.into_iter().zip(b));
        }
        let mut leaves = FxHashSet::default();
        for atom in atoms::all_atoms(&self.art.src) {
            for inst in [Instance::A, Instance::B] {
                leaves.extend(self.atom_word(inst, atom, cycle).iter().map(|r| r.node()));
            }
        }
        difference::layer(&mut self.ipc, &roots, &leaves)
    }

    /// Adds the difference layer of every cycle below `window` that the
    /// solver lacks, each clause as an implied clause
    /// ([`Ipc::add_implied_clause`]).
    fn ensure_difference_layer(&mut self, window: usize) {
        while self.diff_cycles < window {
            let layer = self.difference_layer(self.diff_cycles);
            for c in &layer.clauses {
                self.ipc.add_implied_clause(&c.lits, &c.splits);
            }
            self.diff_cycles += 1;
        }
    }

    // ------------------------------------------------------------------
    // Word access
    // ------------------------------------------------------------------

    fn input_word(&self, inst: Instance, src_wire: Wire, cycle: usize) -> Word {
        let mapped = self.art.map(inst).signal(src_wire.id());
        let w = self.art.product.wire_of(mapped);
        self.ipc.unroller().input(w, cycle).clone()
    }

    /// The value of an arbitrary source-netlist signal in `inst` during
    /// `cycle`.
    pub fn signal_word(&self, inst: Instance, src_wire: Wire, cycle: usize) -> Word {
        let mapped = self.art.map(inst).signal(src_wire.id());
        let w = self.art.product.wire_of(mapped);
        self.ipc.unroller().signal(w, cycle).clone()
    }

    /// The shared protected-range base (cycle-0 symbol; the base is an
    /// allocation-time constant, so one symbol serves all cycles).
    fn prot_word(&self) -> Word {
        self.ipc.unroller().input(self.art.prot_base, 0).clone()
    }

    /// The state word of `atom` in `inst` at time `t`.
    pub fn atom_word(&self, inst: Instance, atom: StateAtom, t: usize) -> Word {
        match atom {
            StateAtom::Reg(id) => {
                let mapped = self.art.map(inst).signal(id);
                self.ipc.unroller().reg_state(mapped, t).clone()
            }
            StateAtom::MemWord(mem, i) => {
                let mapped = self.art.map(inst).mem(mem);
                self.ipc.unroller().mem_word_state(mapped, i, t).clone()
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared macros
    // ------------------------------------------------------------------

    /// `in_range(addr) = (addr & range_mask) == prot_base`.
    fn in_range(&mut self, addr: &Word) -> AigRef {
        let prot = self.prot_word();
        let mask = self.core.range_mask;
        let aig = self.ipc.unroller_mut().aig_mut();
        let mask_w = words::constant(aig, ssc_netlist::Bv::new(32, mask));
        let masked = words::and(aig, addr, &mask_w);
        words::eq(aig, &masked, &prot)
    }

    /// For a guarded memory word: the literal "this word lies in the
    /// protected range" (a function of `prot_base` only).
    fn word_in_range(&mut self, mem: MemId, index: u32) -> Option<AigRef> {
        let base = *self.art.device_base.get(&mem)?;
        let addr = (base + 4 * u64::from(index)) & self.core.range_mask;
        let prot = self.prot_word();
        let aig = self.ipc.unroller_mut().aig_mut();
        Some(words::eq_const(aig, &prot, addr))
    }

    /// The scenario-independent half of the range validity: the symbolic
    /// base is aligned to the range mask (bits outside the mask are zero).
    fn alignment_validity(&mut self) -> Vec<AigRef> {
        let prot = self.prot_word();
        let spec_mask = self.core.range_mask;
        let aig = self.ipc.unroller_mut().aig_mut();
        let inv = words::constant(aig, ssc_netlist::Bv::new(32, !spec_mask));
        let low = words::and(aig, &prot, &inv);
        vec![words::eq_const(aig, &low, 0)]
    }

    /// `Primary_Input_Constraints` at `cycle`: all non-port inputs equal
    /// between the instances.
    pub fn input_eq(&mut self, cycle: usize) -> Vec<AigRef> {
        let inputs: Vec<Wire> = self.art.free_inputs().into_iter().map(|(w, _)| w).collect();
        let mut out = Vec::new();
        for w in inputs {
            let a = self.input_word(Instance::A, w, cycle);
            let b = self.input_word(Instance::B, w, cycle);
            let aig = self.ipc.unroller_mut().aig_mut();
            out.push(words::eq(aig, &a, &b));
        }
        out
    }

    /// `Victim_Task_Executing` at `cycle` (paper Sec. 3.3): accesses to
    /// protected addresses may differ between the instances (they are the
    /// confidential information); all other accesses are equal.
    pub fn victim_macro(&mut self, cycle: usize) -> Vec<AigRef> {
        let p = self.art.port_src;
        let req_a = self.input_word(Instance::A, p.req, cycle);
        let req_b = self.input_word(Instance::B, p.req, cycle);
        let addr_a = self.input_word(Instance::A, p.addr, cycle);
        let addr_b = self.input_word(Instance::B, p.addr, cycle);
        let we_a = self.input_word(Instance::A, p.we, cycle);
        let we_b = self.input_word(Instance::B, p.we, cycle);
        let wd_a = self.input_word(Instance::A, p.wdata, cycle);
        let wd_b = self.input_word(Instance::B, p.wdata, cycle);

        let in_a = self.in_range(&addr_a);
        let in_b = self.in_range(&addr_b);
        let aig = self.ipc.unroller_mut().aig_mut();

        let norm_a = aig.and(req_a[0], in_a.not());
        let norm_b = aig.and(req_b[0], in_b.not());

        let mut out = Vec::new();
        // Non-protected activity is identical in both instances.
        out.push(aig.xnor(norm_a, norm_b));
        let addr_eq = words::eq(aig, &addr_a, &addr_b);
        let we_eq = aig.xnor(we_a[0], we_b[0]);
        let wd_eq = words::eq(aig, &wd_a, &wd_b);
        out.push(aig.implies(norm_a, addr_eq));
        out.push(aig.implies(norm_a, we_eq));
        out.push(aig.implies(norm_a, wd_eq));

        // Threat-model restriction: spying IPs have no direct access to the
        // protected range — their bus requests never target it.
        let ip_ports = self.core.ip_ports.clone();
        for ip in &ip_ports {
            let req_w = self.art.src.find(&ip.req).expect("validated in build()");
            let addr_w = self.art.src.find(&ip.addr).expect("validated in build()");
            for inst in [Instance::A, Instance::B] {
                let req = self.signal_word(inst, req_w, cycle);
                let addr = self.signal_word(inst, addr_w, cycle);
                let hit = self.in_range(&addr);
                let aig = self.ipc.unroller_mut().aig_mut();
                out.push(aig.implies(req[0], hit.not()));
            }
        }
        out
    }

    /// The guarded equality term of one atom at time `t`: *atom equal
    /// between the instances*, weakened by the "inside the protected range"
    /// exemption for victim-allocatable memory words.
    ///
    /// Terms are cached per `(atom, t)` — for the universe atoms they are
    /// pre-built (and encoded) when the prefix grows, so every fork and
    /// every fixpoint iteration reuses the same AIG node and CNF variables
    /// regardless of how the surrounding set shrinks.
    pub fn atom_eq_term(&mut self, atom: StateAtom, t: usize) -> AigRef {
        if let Some(&term) = self.eq_terms.get(&(atom, t)) {
            return term;
        }
        let a = self.atom_word(Instance::A, atom, t);
        let b = self.atom_word(Instance::B, atom, t);
        let guard = match atom {
            StateAtom::MemWord(mem, i) => self.word_in_range(mem, i),
            StateAtom::Reg(_) => None,
        };
        let aig = self.ipc.unroller_mut().aig_mut();
        let eq = words::eq(aig, &a, &b);
        let term = match guard {
            Some(in_range) => aig.or(in_range, eq),
            None => eq,
        };
        self.eq_terms.insert((atom, t), term);
        term
    }
}

/// A *persistent* proof session: one scenario bound to a (possibly forked)
/// [`SessionPrefix`], with macro construction, the incremental check and
/// counterexample extraction.
///
/// One session is designed to serve an **entire procedure run** — all
/// windows of Alg. 2 *and* the Alg. 1 fixpoint that finishes it — against
/// one SAT solver, so learnt clauses carry over and nothing is re-encoded:
///
/// - the scenario-independent standing assumptions (range alignment,
///   per-cycle input equality and victim macro) and the per-atom
///   state-equality terms live in the prefix, pre-encoded — a session
///   created from a fork ([`Session::with_prefix`]) inherits them without
///   re-encoding anything;
/// - the scenario's own assumptions (device-window validity, firmware
///   constraints, quiescing) are kept in a second ledger and only
///   *extended* when the window grows ([`Session::ensure_window`]);
/// - the negated proof goal is installed as an activation-literal-guarded
///   clause ([`Session::check_window`]) and retired when the sets change,
///   which removes the obligation without invalidating the learnt-clause
///   database.
pub struct Session<'p> {
    prefix: SessionPrefix<'p>,
    an: &'p UpecAnalysis,
    /// Scenario-specific standing assumptions: device-window validity,
    /// firmware-state and quiescing assumptions (invariant block), then
    /// one firmware-port block per unrolled cycle.
    scenario: Ledger,
    /// Scratch assumption-literal buffer reused across checks.
    lit_buf: Vec<Lit>,
    /// After a `Holds` from [`Session::check_window`]: whether the
    /// assumption core avoided every atom-equality assumption, pre-state
    /// or carried (`None` after a violated check).
    last_core_without_state_eq: Option<bool>,
    /// Atom → epoch of the last refinement that named it
    /// ([`Session::note_shrunk`]); orders the pre-state assumptions
    /// most-recently-shrunk-first.
    shrink_stamp: FxHashMap<StateAtom, u64>,
    shrink_epoch: u64,
    /// Disjuncts installed in the most recent check's goal clause, drained
    /// by [`Session::take_goal_disjuncts`].
    goal_disjuncts: usize,
}

impl<'p> Session<'p> {
    /// Opens a session with `window` transitions unrolled (states
    /// `0..=window` available), building a private prefix.
    ///
    /// This routes through exactly the same construction as a shared
    /// prefix plus [`Session::with_prefix`], so a session over a private
    /// prefix and a session forked from a shared one are state-identical —
    /// the guarantee behind the fork-vs-fresh equivalence tests.
    pub fn new(an: &'p UpecAnalysis, window: usize) -> Self {
        let prefix = SessionPrefix::build(an.artifact(), an.spec(), window)
            .expect("a bound spec was already validated");
        Session::with_prefix(an, prefix)
    }

    /// Binds a (typically forked) prefix to one scenario: appends the
    /// scenario's own standing assumptions on top of the inherited shared
    /// encoding.
    ///
    /// # Panics
    ///
    /// Panics if the prefix was built over a different [`ProductArtifact`]
    /// than `an` is bound to, or the scenario disagrees with the prefix's
    /// shared core (range mask, spying-IP ports) — both are programming
    /// errors, not data-dependent conditions.
    pub fn with_prefix(an: &'p UpecAnalysis, prefix: SessionPrefix<'p>) -> Self {
        assert!(
            std::ptr::eq(prefix.art, Arc::as_ptr(&an.art)),
            "session prefix was built over a different product artifact"
        );
        assert!(
            prefix.core.range_mask == an.spec.range_mask
                && prefix.core.ip_ports == an.spec.ip_ports,
            "scenario disagrees with the prefix's shared core (range mask / IP ports)"
        );
        let mut sess = Session {
            prefix,
            an,
            scenario: Ledger::default(),
            lit_buf: Vec::new(),
            last_core_without_state_eq: None,
            shrink_stamp: FxHashMap::default(),
            shrink_epoch: 0,
            goal_disjuncts: 0,
        };
        let mut inv = sess.device_range_validity();
        inv.extend(sess.firmware_state_assumptions());
        inv.extend(sess.quiescing_assumptions());
        sess.push_scenario_block(inv);
        let window = sess.prefix.window();
        while sess.scenario.window() < window {
            let cycle = sess.scenario.window();
            let block = sess.firmware_port_assumptions(cycle);
            sess.push_scenario_block(block);
        }
        sess
    }

    /// Grows the window to `window` transitions, extending the unrolling
    /// and both assumption ledgers by exactly the new cycles.
    pub fn ensure_window(&mut self, window: usize) {
        self.prefix.ensure_window(window);
        while self.scenario.window() < window {
            let cycle = self.scenario.window();
            let block = self.firmware_port_assumptions(cycle);
            self.push_scenario_block(block);
        }
    }

    /// Grows the window to `window` transitions and adds the difference
    /// layer of every cycle below it that the session does not have yet
    /// (see [`crate::difference`]). Alg. 1 and the incremental Alg. 2 call
    /// it when they first grow a session to a cycle, before the check;
    /// nothing else does, so prefixes, constraint obligations and
    /// [`UpecAnalysis::alg2_fresh_baseline`] stay layer-free. The clauses
    /// are implied by the AIG, so no check's answer can change; a
    /// certifying session derives each one before the solver gets it.
    pub(crate) fn ensure_difference_layer(&mut self, window: usize) {
        self.ensure_window(window);
        self.prefix.ensure_difference_layer(window);
    }

    /// The difference layer of `cycle` (see [`crate::difference`]): walks
    /// instance `a`'s and `b`'s copies of the cycle in pairs, from every
    /// `S_not_victim` atom's bits at `cycle + 1` down to the state bits at
    /// `cycle` and the cycle's inputs, and builds in the AIG the XOR node of
    /// each pair where a node owns a solver variable by now
    /// ([`Ipc::owns_var`]). Nothing enters the solver: Alg. 1 and Alg. 2
    /// add the clauses through [`Ipc::add_implied_clause`], which encodes
    /// the XOR nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is not below the window.
    pub fn difference_layer(&mut self, cycle: usize) -> DifferenceLayer {
        self.prefix.difference_layer(cycle)
    }

    /// Appends one block of scenario assumptions, encoding each literal.
    fn push_scenario_block(&mut self, refs: Vec<AigRef>) {
        for r in refs {
            let lit = self.prefix.ipc.lit_of(r);
            self.scenario.refs.push(r);
            self.scenario.lits.push(lit);
        }
        self.scenario.offsets.push(self.scenario.refs.len());
    }

    /// The analysis this session is bound to.
    pub fn analysis(&self) -> &'p UpecAnalysis {
        self.an
    }

    /// The underlying interval property checker (exposed so downstream
    /// experiment harnesses can time individual checks).
    pub fn ipc(&self) -> &Ipc<'p> {
        &self.prefix.ipc
    }

    /// Mutable access to the underlying checker.
    pub fn ipc_mut(&mut self) -> &mut Ipc<'p> {
        &mut self.prefix.ipc
    }

    /// The number of transitions the session currently supports.
    pub fn window(&self) -> usize {
        self.prefix.window()
    }

    /// Solver statistics (for experiment reporting).
    pub fn solver_stats(&self) -> ssc_sat::SolverStats {
        self.prefix.ipc.solver_stats()
    }

    /// Installs the resource [`ssc_sat::Budget`] governing every subsequent
    /// check of this session. A check whose budget runs out surfaces as
    /// `PropertyResult::Interrupted`, which the procedures convert into
    /// [`crate::Verdict::Inconclusive`] with the partial trajectory.
    pub fn set_budget(&mut self, budget: ssc_sat::Budget) {
        self.prefix.ipc.set_budget(budget);
    }

    /// Drains the count of disjuncts installed in the most recent check's
    /// goal clause.
    pub fn take_goal_disjuncts(&mut self) -> usize {
        std::mem::take(&mut self.goal_disjuncts)
    }

    /// Cumulative count of AIG nodes that own a solver variable (see
    /// [`Ipc::encoded_nodes`]); deltas of this counter prove the per-window
    /// encoding work of the incremental engine is bounded by the newly
    /// unrolled cycle's cone.
    pub fn encoded_nodes(&self) -> usize {
        self.prefix.ipc.encoded_nodes()
    }

    /// The value of an arbitrary source-netlist signal in `inst` during
    /// `cycle`.
    pub fn signal_word(&self, inst: Instance, src_wire: Wire, cycle: usize) -> Word {
        self.prefix.signal_word(inst, src_wire, cycle)
    }

    /// The state word of `atom` in `inst` at time `t`.
    pub fn atom_word(&self, inst: Instance, atom: StateAtom, t: usize) -> Word {
        self.prefix.atom_word(inst, atom, t)
    }

    /// `Primary_Input_Constraints` at `cycle` (see
    /// [`SessionPrefix::input_eq`]).
    pub fn input_eq(&mut self, cycle: usize) -> Vec<AigRef> {
        self.prefix.input_eq(cycle)
    }

    /// `Victim_Task_Executing` at `cycle` (see
    /// [`SessionPrefix::victim_macro`]).
    pub fn victim_macro(&mut self, cycle: usize) -> Vec<AigRef> {
        self.prefix.victim_macro(cycle)
    }

    // ------------------------------------------------------------------
    // Scenario macros
    // ------------------------------------------------------------------

    /// The scenario half of the range validity: if specified, the symbolic
    /// base lies inside the designated device window.
    fn device_range_validity(&mut self) -> Vec<AigRef> {
        let Some(dev) = self.an.spec.range_in_device else {
            return Vec::new();
        };
        let dev_mask = self.an.spec.device_mask;
        let prot = self.prefix.prot_word();
        let aig = self.prefix.ipc.unroller_mut().aig_mut();
        let dm = words::constant(aig, ssc_netlist::Bv::new(32, dev_mask));
        let masked = words::and(aig, &prot, &dm);
        vec![words::eq_const(aig, &masked, dev)]
    }

    /// Firmware-constraint assumptions on the symbolic *starting state*
    /// (the window-invariant half of the constraints).
    pub fn firmware_state_assumptions(&mut self) -> Vec<AigRef> {
        let mut out = Vec::new();
        let constraints = self.an.spec.constraints.clone();
        for c in &constraints {
            if let FirmwareConstraint::RegOutsideDevice { reg, mask, device } = c {
                let w = self.an.src().find(reg).expect("validated in bind()");
                for inst in [Instance::A, Instance::B] {
                    let state = self.atom_word(inst, StateAtom::Reg(w.id()), 0);
                    let aig = self.prefix.ipc.unroller_mut().aig_mut();
                    let m = words::constant(aig, ssc_netlist::Bv::new(32, *mask));
                    let masked = words::and(aig, &state, &m);
                    let hit = words::eq_const(aig, &masked, *device);
                    out.push(hit.not());
                }
            }
        }
        out
    }

    /// Firmware port-write constraints for one `cycle` (the per-cycle half
    /// of the constraints, appended as the window grows).
    pub fn firmware_port_assumptions(&mut self, cycle: usize) -> Vec<AigRef> {
        let mut out = Vec::new();
        let constraints = self.an.spec.constraints.clone();
        for c in &constraints {
            if let FirmwareConstraint::PortWriteOutsideDevice { cfg_addr, mask, device } = c {
                let p = self.an.art.port_src;
                for inst in [Instance::A, Instance::B] {
                    let req = self.prefix.input_word(inst, p.req, cycle);
                    let we = self.prefix.input_word(inst, p.we, cycle);
                    let addr = self.prefix.input_word(inst, p.addr, cycle);
                    let wd = self.prefix.input_word(inst, p.wdata, cycle);
                    let aig = self.prefix.ipc.unroller_mut().aig_mut();
                    let is_cfg = words::eq_const(aig, &addr, *cfg_addr);
                    let wr0 = aig.and(req[0], we[0]);
                    let wr = aig.and(wr0, is_cfg);
                    let m = words::constant(aig, ssc_netlist::Bv::new(32, *mask));
                    let masked = words::and(aig, &wd, &m);
                    let hit = words::eq_const(aig, &masked, *device);
                    out.push(aig.implies(wr, hit.not()));
                }
            }
        }
        out
    }

    /// Quiescing assumptions: the named busy flags are 0 in the symbolic
    /// starting state of both instances.
    pub fn quiescing_assumptions(&mut self) -> Vec<AigRef> {
        let names = self.an.spec.quiesced_ips.clone();
        let mut out = Vec::new();
        for name in &names {
            let w = self.an.src().find(name).expect("validated in bind()");
            for inst in [Instance::A, Instance::B] {
                let state = self.atom_word(inst, StateAtom::Reg(w.id()), 0);
                out.push(state[0].not());
            }
        }
        out
    }

    /// All standing assumptions for a `window`-transition property: range
    /// validity, firmware constraints, IP quiescing, and per-cycle input
    /// equality + victim macro — the shared ledger first, then the
    /// scenario ledger.
    ///
    /// Repeated calls (and calls for smaller windows) copy cached refs and
    /// perform no AIG construction at all; a larger window only builds the
    /// newly added cycles' blocks.
    pub fn base_assumptions(&mut self, window: usize) -> Vec<AigRef> {
        self.ensure_window(window);
        let mut out = Vec::new();
        self.for_base_blocks(window, |ledger, range| out.extend_from_slice(&ledger.refs[range]));
        out
    }

    /// Visits the standing-assumption blocks for `window` in solve order:
    /// per block boundary, the shared ledger's slice first, then the
    /// scenario ledger's. Assumptions become solver decisions in order, so
    /// the strongly pruning scenario constraints (device window, firmware,
    /// quiescing) must follow their window block immediately — deferring
    /// them to the end measurably slows satisfiable checks down.
    fn for_base_blocks(&self, window: usize, mut f: impl FnMut(&Ledger, std::ops::Range<usize>)) {
        let shared = &self.prefix.shared;
        for w in 0..=window {
            let start = if w == 0 { 0 } else { shared.offsets[w - 1] };
            f(shared, start..shared.offsets[w]);
            let start = if w == 0 { 0 } else { self.scenario.offsets[w - 1] };
            f(&self.scenario, start..self.scenario.offsets[w]);
        }
    }

    /// The guarded equality term of one atom at time `t` (see
    /// [`SessionPrefix::atom_eq_term`]).
    pub fn atom_eq_term(&mut self, atom: StateAtom, t: usize) -> AigRef {
        self.prefix.atom_eq_term(atom, t)
    }

    /// `State_Equivalence(S)` at time `t`: every atom in `S` equal between
    /// the instances; victim-allocatable memory words are exempt while they
    /// lie inside the protected range.
    pub fn state_eq(&mut self, set: &AtomSet, t: usize) -> AigRef {
        let conj: Vec<AigRef> = set.iter().map(|&atom| self.atom_eq_term(atom, t)).collect();
        let aig = self.prefix.ipc.unroller_mut().aig_mut();
        aig.and_all(conj)
    }

    /// Records a refinement step: the given diff atoms were just named by a
    /// counterexample (and removed from some tracked cycle set). Their
    /// pre-state equality assumptions are the hottest constraints of the
    /// next re-solve, so [`Session::check_window`] orders them first
    /// (most-recently-shrunk-first — see `ssc_sat::SolverStats::core_seeds`
    /// for the solver-side half of the re-solve tuning).
    pub fn note_shrunk(&mut self, diffs: &[AtomDiff]) {
        if diffs.is_empty() {
            return;
        }
        self.shrink_epoch += 1;
        for d in diffs {
            self.shrink_stamp.insert(d.atom, self.shrink_epoch);
        }
    }

    /// The incremental UPEC-SSC check: *assume the standing assumptions of
    /// `window`, `State_Equivalence(pre)` at time 0 and
    /// `State_Equivalence(set)` at time `c` for every `(c, set)` in
    /// `proven`, prove `State_Equivalence(set)` at time `c` for every
    /// `(c, set)` in `goals`*.
    ///
    /// `proven` carries equalities an earlier check of the same session
    /// already proved from `State_Equivalence(pre)` and a subset of this
    /// window's standing assumptions, as Alg. 2 does with the sets of the
    /// cycles below its window: every model of this check satisfies them
    /// anyway, so they change no answer, but the solver no longer has to
    /// re-derive them. They enter as assumption literals, never as
    /// clauses, so a certifying session's checker sees them in the core
    /// of every answer that rests on them.
    ///
    /// The negated goal (some tracked atom diverges at its cycle) is a
    /// disjunction of cached per-atom terms, installed as a clause guarded
    /// by a fresh activation literal and retired right after the solve —
    /// so consecutive checks with shrinking sets add only the clause and
    /// whatever cones are genuinely new, and the solver's learnt-clause
    /// database survives the whole fixpoint.
    pub fn check_window(
        &mut self,
        window: usize,
        pre: &AtomSet,
        proven: &[(usize, &AtomSet)],
        goals: &[(usize, &AtomSet)],
    ) -> PropertyResult {
        self.ensure_window(window);
        let mut neg_goal = Vec::new();
        for &(cycle, set) in goals {
            debug_assert!(cycle <= window, "goal cycle outside the window");
            for &atom in set {
                neg_goal.push(self.prefix.atom_eq_term(atom, cycle).not());
            }
        }
        self.goal_disjuncts = neg_goal.len();
        if neg_goal.is_empty() {
            // An empty goal holds outright; skip the solver.
            self.last_core_without_state_eq = Some(true);
            return PropertyResult::Holds;
        }

        let act = self.prefix.ipc.activation_literal();
        self.prefix.ipc.add_clause_under(act, &neg_goal);

        let mut lits = std::mem::take(&mut self.lit_buf);
        lits.clear();
        self.for_base_blocks(window, |ledger, range| lits.extend_from_slice(&ledger.lits[range]));
        // `State_Equivalence(pre)` enters as one assumption literal *per
        // atom* (not one conjunction): logically identical, but on `Holds`
        // the solver's assumption core then reports which atoms' equalities
        // the proof actually rested on. Atoms named by recent refinements
        // go first (a stable sort keeps the deterministic atom order within
        // equal epochs).
        let pre_start = lits.len();
        let mut order: Vec<StateAtom> = pre.iter().copied().collect();
        order.sort_by_key(|a| {
            std::cmp::Reverse(self.shrink_stamp.get(a).copied().unwrap_or(0))
        });
        for &atom in &order {
            let term = self.prefix.atom_eq_term(atom, 0);
            let lit = self.prefix.ipc.lit_of(term);
            lits.push(lit);
        }
        // The carried equalities follow the pre-state ones, so they count
        // as state-equality assumptions for the core flag below.
        for &(cycle, set) in proven {
            debug_assert!(cycle < window, "carried cycle outside the window");
            for &atom in set {
                let term = self.prefix.atom_eq_term(atom, cycle);
                let lit = self.prefix.ipc.lit_of(term);
                lits.push(lit);
            }
        }
        lits.push(act);
        let result = self.prefix.ipc.check_lits(&lits);
        self.last_core_without_state_eq = match result {
            PropertyResult::Holds => {
                // Which atom-equality assumptions the proof rested on.
                let core = self.prefix.ipc.assumption_core();
                Some(!lits[pre_start..lits.len() - 1].iter().any(|l| core.contains(l)))
            }
            PropertyResult::Violated | PropertyResult::Interrupted(_) => None,
        };
        self.lit_buf = lits;
        // The goal clause belongs to this check only; retiring it keeps the
        // clause database additive while the state sets shrink.
        self.prefix.ipc.retire_activation(act);
        result
    }

    /// After a `Holds` from [`Session::check_window`]: `Some(true)` iff
    /// **no** atom-equality assumption, pre-state or carried, appears in
    /// the solver's assumption core — i.e. the window property held
    /// independently of `State_Equivalence(pre)` and the carried sets, so
    /// further refinement of the tracked sets cannot change the verdict.
    /// `None` if the last check was violated.
    pub fn last_core_without_state_eq(&self) -> Option<bool> {
        self.last_core_without_state_eq
    }

    // ------------------------------------------------------------------
    // Counterexample extraction
    // ------------------------------------------------------------------

    /// After a violated check: the atoms of `set` that genuinely diverge at
    /// time `t` under the model (range-guarded words that fall inside the
    /// protected range are not counted). `set` is the check's goal set at
    /// `t` or a subset of it, whose words the model has values for.
    pub fn extract_diffs(&self, set: &AtomSet, t: usize) -> Vec<AtomDiff> {
        let prot = self
            .prefix
            .ipc
            .model_word(&self.prefix.prot_word())
            .expect("prot_base encoded by range validity");
        let mut out = Vec::new();
        for &atom in set {
            let wa = self.atom_word(Instance::A, atom, t);
            let wb = self.atom_word(Instance::B, atom, t);
            let ipc = &self.prefix.ipc;
            let (va, vb) = match (ipc.model_word(&wa), ipc.model_word(&wb)) {
                (Ok(va), Ok(vb)) => (va, vb),
                (ra, rb) => {
                    // A goal atom's words are fan-ins of its encoded
                    // equality gates, so they own variables; only words
                    // that are one AIG word in both instances, and so
                    // cannot diverge, may go unread here.
                    debug_assert!(
                        wa == wb,
                        "{} at t = {t} is unreadable ({ra:?}, {rb:?}): a divergence would be lost",
                        self.an.atom_name(atom)
                    );
                    continue;
                }
            };
            if va == vb {
                continue;
            }
            if let StateAtom::MemWord(mem, i) = atom {
                if let Some(base) = self.an.art.device_base.get(&mem) {
                    let addr = (base + 4 * u64::from(i)) & self.an.spec.range_mask;
                    if addr == prot {
                        continue; // victim-allocated word: exempt
                    }
                }
            }
            out.push(AtomDiff {
                atom,
                name: self.an.atom_name(atom),
                value_a: va,
                value_b: vb,
                persistent: self.an.is_persistent(atom),
            });
        }
        out
    }

    /// Builds the full counterexample record after a violated check.
    pub fn capture_cex(&self, diffs: Vec<AtomDiff>, at_cycle: usize, window: usize) -> Counterexample {
        let prot = self.prefix.ipc.model_word(&self.prefix.prot_word()).unwrap_or(0);
        let p = self.an.art.port_src;
        let free = self.an.art.free_inputs();
        let mut trace = Vec::new();
        for c in 0..window {
            let get = |s: &Self, inst, w| {
                s.prefix.ipc.model_word(&s.prefix.input_word(inst, w, c)).unwrap_or(0)
            };
            let act = |s: &Self, inst: Instance| -> PortActivity {
                let req = get(s, inst, p.req) == 1;
                let addr = get(s, inst, p.addr);
                let we = get(s, inst, p.we) == 1;
                let wdata = get(s, inst, p.wdata);
                PortActivity {
                    req,
                    addr,
                    we,
                    wdata,
                    protected: req && (addr & self.an.spec.range_mask) == prot,
                }
            };
            // Equal in both instances under `Primary_Input_Constraints`.
            let inputs =
                free.iter().map(|&(w, name)| (name.to_string(), get(self, Instance::A, w))).collect();
            trace.push(CexCycle {
                cycle: c,
                port_a: act(self, Instance::A),
                port_b: act(self, Instance::B),
                inputs,
            });
        }
        // Initial state of both instances for concrete replay, read bit by
        // bit: a word whose high bits lie outside the check's cone (say
        // `r7` of `r4.next = r7 + r7`) still replays its encoded bits, with
        // the others 0. Only a word with no bit in the model is left at its
        // reset value.
        let model_bits = |word: &Word| {
            let mut value = None;
            for (i, bit) in word.iter().enumerate() {
                if let Ok(b) = self.prefix.ipc.model_word(std::slice::from_ref(bit)) {
                    value = Some(value.unwrap_or(0) | b << i);
                }
            }
            value
        };
        let mut initial_state = Vec::new();
        for atom in atoms::all_atoms(self.an.src()) {
            let wa = self.atom_word(Instance::A, atom, 0);
            let wb = self.atom_word(Instance::B, atom, 0);
            if let (Some(va), Some(vb)) = (model_bits(&wa), model_bits(&wb)) {
                initial_state.push((atom, self.an.atom_name(atom), va, vb));
            }
        }
        Counterexample { at_cycle, diffs, prot_base: prot, trace, initial_state }
    }
}

/// Always disabled: the engine has no cube-and-conquer escalation. Kept
/// only because `perfbench/src/host.rs` reads it; delete with the next
/// benchmark change.
#[derive(Clone, Debug)]
pub struct CubeConfig {
    /// Always `false`.
    pub enabled: bool,
}

impl CubeConfig {
    /// Always the disabled configuration; reads no environment variable.
    pub fn from_env() -> CubeConfig {
        CubeConfig { enabled: false }
    }
}

/// Always `false`: the engine has no static goal pruning. Kept only
/// because `perfbench/src/host.rs` reads it; delete with the next
/// benchmark change.
pub fn static_prune_from_env() -> bool {
    false
}

/// Compile-time thread-safety audit for the portfolio runner
/// (`ssc-bench::portfolio`): phase one builds one [`ProductArtifact`] and
/// one [`SessionPrefix`] per SoC size and **shares both by reference**
/// across the pool workers (the prefix is only forked, never mutated, on
/// worker threads), while phase two constructs one [`UpecAnalysis`] +
/// [`Session`] per job. If a future change introduces interior mutability
/// or thread-bound state in any of these types, this fails to compile
/// instead of racing at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<ProductArtifact>();
    assert_send_sync::<UpecAnalysis>();
    assert_send_sync::<SessionPrefix<'static>>();
    assert_send_sync::<crate::spec::UpecSpec>();
    assert_send::<crate::report::Verdict>();
    assert_send::<Session<'static>>();
};
