//! A line-oriented textual netlist format with a full parser.
//!
//! The format is a small RTL interchange dialect (in the spirit of BTOR2 /
//! RTLIL): one definition per line, ids are `%N`, memories are `@N`.
//!
//! ```text
//! netlist counter
//! %0 input en 1
//! %1 reg count 8 init=0 kind=ipreg acc=1
//! %2 const 8'd1
//! %3 op add 8 %1 %2
//! %4 op mux 8 %0 %3 %1
//! next %1 %4
//! @0 mem ram 16 32 kind=mem acc=1
//! %5 memread @0 %3 32
//! write @0 en=%0 addr=%3 data=%5
//! output count %1
//! name inc %3
//! end
//! ```
//!
//! [`emit`] and [`parse`] round-trip every construct of the IR (except
//! memory initial contents, which are emitted as `meminit` lines).

use std::fmt::Write as _;

use crate::bv::{Bv, MAX_WIDTH};
use crate::ir::{Memory, Netlist, Node, Op, RegHandle, StateKind, StateMeta, Wire};

/// Serializes a netlist to the textual format.
pub fn emit(netlist: &Netlist) -> String {
    let mut s = String::new();
    writeln!(s, "netlist {}", netlist.name()).unwrap();
    for (mid, m) in netlist.iter_mems() {
        writeln!(
            s,
            "@{} mem {} {} {} kind={} acc={}",
            mid.index(),
            m.name,
            m.words,
            m.width,
            m.meta.kind,
            u8::from(m.meta.attacker_accessible)
        )
        .unwrap();
        if let Some(init) = &m.init {
            write!(s, "meminit @{}", mid.index()).unwrap();
            for bv in init {
                write!(s, " {}", bv.val()).unwrap();
            }
            writeln!(s).unwrap();
        }
    }
    for (id, node) in netlist.iter_nodes() {
        match node {
            Node::Input { name, width } => {
                writeln!(s, "%{} input {} {}", id.0, name, width).unwrap();
            }
            Node::Const(bv) => {
                writeln!(s, "%{} const {}'d{}", id.0, bv.width(), bv.val()).unwrap();
            }
            Node::Op { op, args, width } => {
                write!(s, "%{} op {} {}", id.0, op_text(op), width).unwrap();
                for a in args {
                    write!(s, " %{}", a.0).unwrap();
                }
                writeln!(s).unwrap();
            }
            Node::Reg(info) => {
                write!(s, "%{} reg {} {}", id.0, info.name, info.width).unwrap();
                if let Some(init) = info.init {
                    write!(s, " init={}", init.val()).unwrap();
                }
                writeln!(s, " kind={} acc={}", info.meta.kind, u8::from(info.meta.attacker_accessible))
                    .unwrap();
            }
            Node::MemRead { mem, addr, width } => {
                writeln!(s, "%{} memread @{} %{} {}", id.0, mem.index(), addr.0, width).unwrap();
            }
        }
    }
    for (id, node) in netlist.iter_nodes() {
        if let Node::Reg(info) = node {
            if let Some(next) = info.next {
                writeln!(s, "next %{} %{}", id.0, next.0).unwrap();
            }
        }
    }
    for (mid, m) in netlist.iter_mems() {
        for wp in &m.write_ports {
            writeln!(
                s,
                "write @{} en=%{} addr=%{} data=%{}",
                mid.index(),
                wp.en.0,
                wp.addr.0,
                wp.data.0
            )
            .unwrap();
        }
    }
    for (name, id) in netlist.iter_outputs() {
        writeln!(s, "output {} %{}", name, id.0).unwrap();
    }
    // Extra names: every binding that is not a node's canonical name
    // (inputs/registers carry their canonical name inline; aliases and
    // named wires need explicit `name` lines).
    for (name, id) in netlist.iter_names() {
        let canonical = match netlist.node(id) {
            Node::Input { name: n, .. } => Some(n.as_str()),
            Node::Reg(info) => Some(info.name.as_str()),
            _ => None,
        };
        if canonical != Some(name) {
            writeln!(s, "name {} %{}", name, id.0).unwrap();
        }
    }
    writeln!(s, "end").unwrap();
    s
}

fn op_text(op: &Op) -> String {
    match op {
        Op::ShlC(a) => format!("shlc:{a}"),
        Op::ShrC(a) => format!("shrc:{a}"),
        Op::SarC(a) => format!("sarc:{a}"),
        Op::Slice { hi, lo } => format!("slice:{hi}:{lo}"),
        other => other.mnemonic().to_string(),
    }
}

/// Parse error with a line number and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    line_no: usize,
    netlist: Netlist,
    /// old textual id -> created wire
    sigs: Vec<Option<Wire>>,
    /// Bound on definition ids: the source's line count. [`emit`] writes
    /// one definition line per node index, so it never reaches the bound,
    /// and `sigs` never grows past it.
    id_limit: usize,
    pending_next: Vec<(usize, u32, u32)>, // (line, reg, next)
    src: &'a str,
}

/// Parses the textual format produced by [`emit`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse(src: &str) -> Result<Netlist, ParseError> {
    let mut p = Parser {
        line_no: 0,
        netlist: Netlist::new("anonymous"),
        sigs: Vec::new(),
        id_limit: src.lines().count(),
        pending_next: Vec::new(),
        src,
    };
    p.run()?;
    Ok(p.netlist)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { line: self.line_no, msg: msg.into() }
    }

    fn run(&mut self) -> Result<(), ParseError> {
        let lines: Vec<&str> = self.src.lines().collect();
        for (i, raw) in lines.iter().enumerate() {
            self.line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut toks = line.split_whitespace();
            let head = toks.next().expect("nonempty line");
            let rest: Vec<&str> = toks.collect();
            match head {
                "netlist" => {
                    let name = rest.first().ok_or_else(|| self.err("missing design name"))?;
                    if !self.sigs.is_empty() || self.netlist.num_mems() > 0 {
                        return Err(self.err("`netlist` must precede every definition"));
                    }
                    self.netlist = Netlist::new(*name);
                }
                "end" => break,
                "next" => self.parse_next(&rest)?,
                "write" => self.parse_write(&rest)?,
                "meminit" => self.parse_meminit(&rest)?,
                "output" => {
                    let (name, id) = self.name_and_sig(&rest)?;
                    if self.netlist.output(&name).is_some() {
                        return Err(self.err(format!("duplicate output `{name}`")));
                    }
                    self.netlist.mark_output(&name, id);
                }
                "name" => {
                    let (name, id) = self.name_and_sig(&rest)?;
                    if self.netlist.find(&name).is_none() {
                        self.netlist.set_name(id, &name);
                    }
                }
                t if t.starts_with('%') => self.parse_signal(t, &rest)?,
                t if t.starts_with('@') => self.parse_mem(t, &rest)?,
                other => return Err(self.err(format!("unknown directive `{other}`"))),
            }
        }
        // Resolve forward next-state references.
        let pend = std::mem::take(&mut self.pending_next);
        for (line, reg, next) in pend {
            self.line_no = line;
            let reg_w = self.sig(reg)?;
            let next_w = self.sig(next)?;
            match self.netlist.node(reg_w.id()) {
                Node::Reg(info) if info.next.is_some() => {
                    return Err(self.err(format!("second `next` for register %{reg}")));
                }
                Node::Reg(_) => {}
                _ => return Err(self.err(format!("`next` on non-register %{reg}"))),
            }
            if next_w.width() != reg_w.width() {
                return Err(self.err(format!(
                    "`next` width {} differs from register %{reg}'s width {}",
                    next_w.width(),
                    reg_w.width()
                )));
            }
            let handle = RegHandle { id: reg_w.id(), width: reg_w.width() };
            self.netlist.connect_reg(handle, next_w);
        }
        Ok(())
    }

    fn name_and_sig(&self, rest: &[&str]) -> Result<(String, Wire), ParseError> {
        if rest.len() != 2 {
            return Err(self.err("expected `<name> %id`"));
        }
        let id = self.parse_ref(rest[1])?;
        Ok((rest[0].to_string(), self.sig(id)?))
    }

    fn parse_ref(&self, tok: &str) -> Result<u32, ParseError> {
        tok.strip_prefix('%')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err(format!("expected signal ref, got `{tok}`")))
    }

    fn parse_memref(&self, tok: &str) -> Result<u32, ParseError> {
        tok.strip_prefix('@')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err(format!("expected memory ref, got `{tok}`")))
    }

    /// Parses a signal or memory width: `1..=MAX_WIDTH` bits, like [`Bv`].
    fn parse_width(&self, tok: &str) -> Result<u32, ParseError> {
        let width: u32 = tok.parse().map_err(|_| self.err("bad width"))?;
        if !(1..=MAX_WIDTH).contains(&width) {
            return Err(self.err(format!("width {width} outside 1..={MAX_WIDTH}")));
        }
        Ok(width)
    }

    /// Rejects a signal name that is already bound.
    fn fresh_name<'t>(&self, name: &'t str) -> Result<&'t str, ParseError> {
        if self.netlist.find(name).is_some() {
            return Err(self.err(format!("duplicate signal name `{name}`")));
        }
        Ok(name)
    }

    fn sig(&self, id: u32) -> Result<Wire, ParseError> {
        self.sigs
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or_else(|| self.err(format!("undefined signal %{id}")))
    }

    fn record(&mut self, id: u32, wire: Wire) -> Result<(), ParseError> {
        let idx = id as usize;
        if idx >= self.id_limit {
            return Err(
                self.err(format!("signal id %{id} is not below the line count {}", self.id_limit))
            );
        }
        if self.sigs.len() <= idx {
            self.sigs.resize(idx + 1, None);
        }
        if self.sigs[idx].is_some() {
            return Err(self.err(format!("redefinition of %{id}")));
        }
        self.sigs[idx] = Some(wire);
        Ok(())
    }

    fn parse_signal(&mut self, head: &str, rest: &[&str]) -> Result<(), ParseError> {
        let id = self.parse_ref(head)?;
        let kind = *rest.first().ok_or_else(|| self.err("missing node kind"))?;
        let wire = match kind {
            "input" => {
                if rest.len() != 3 {
                    return Err(self.err("input: expected `input <name> <width>`"));
                }
                let width = self.parse_width(rest[2])?;
                let name = self.fresh_name(rest[1])?;
                self.netlist.input(name, width)
            }
            "const" => {
                let bv = self.parse_bv(rest.get(1).copied().ok_or_else(|| self.err("missing const"))?)?;
                self.netlist.constant(bv)
            }
            "reg" => self.parse_reg(rest)?,
            "op" => self.parse_op(rest)?,
            "memread" => {
                if rest.len() != 4 {
                    return Err(self.err("memread: expected `memread @m %addr <width>`"));
                }
                let mem_idx = self.parse_memref(rest[1])?;
                let addr = self.sig(self.parse_ref(rest[2])?)?;
                let mem = self
                    .netlist
                    .iter_mems()
                    .nth(mem_idx as usize)
                    .map(|(m, _)| m)
                    .ok_or_else(|| self.err(format!("undefined memory @{mem_idx}")))?;
                self.netlist.mem_read(mem, addr)
            }
            other => return Err(self.err(format!("unknown node kind `{other}`"))),
        };
        self.record(id, wire)
    }

    fn parse_bv(&self, tok: &str) -> Result<Bv, ParseError> {
        let (w, v) = tok
            .split_once("'d")
            .ok_or_else(|| self.err(format!("bad constant `{tok}`")))?;
        let width = self.parse_width(w)?;
        let val: u64 = v.parse().map_err(|_| self.err("bad const value"))?;
        Ok(Bv::new(width, val))
    }

    fn parse_reg(&mut self, rest: &[&str]) -> Result<Wire, ParseError> {
        if rest.len() < 3 {
            return Err(self.err("reg: expected `reg <name> <width> [init=..] kind=.. acc=..`"));
        }
        let width = self.parse_width(rest[2])?;
        let name = self.fresh_name(rest[1])?;
        let mut init = None;
        let mut meta = StateMeta::default();
        for kv in &rest[3..] {
            let (k, v) = kv.split_once('=').ok_or_else(|| self.err(format!("bad attr `{kv}`")))?;
            match k {
                "init" => {
                    let raw: u64 = v.parse().map_err(|_| self.err("bad init"))?;
                    init = Some(Bv::new(width, raw));
                }
                "kind" => {
                    meta.kind = StateKind::parse_tag(v)
                        .ok_or_else(|| self.err(format!("bad kind `{v}`")))?;
                }
                "acc" => meta.attacker_accessible = v == "1",
                other => return Err(self.err(format!("unknown reg attr `{other}`"))),
            }
        }
        let handle = self.netlist.reg(name, width, init, meta);
        Ok(handle.wire())
    }

    fn parse_op(&mut self, rest: &[&str]) -> Result<Wire, ParseError> {
        if rest.len() < 3 {
            return Err(self.err("op: expected `op <mnemonic> <width> %args..`"));
        }
        let op = self.parse_opcode(rest[1])?;
        let width: u32 = rest[2].parse().map_err(|_| self.err("bad width"))?;
        let mut args = Vec::new();
        for tok in &rest[3..] {
            let w = self.sig(self.parse_ref(tok)?)?;
            args.push(w.id());
        }
        Ok(self.netlist.op_node(op, args, width))
    }

    fn parse_opcode(&self, tok: &str) -> Result<Op, ParseError> {
        let op = match tok {
            "not" => Op::Not,
            "and" => Op::And,
            "or" => Op::Or,
            "xor" => Op::Xor,
            "add" => Op::Add,
            "sub" => Op::Sub,
            "mul" => Op::Mul,
            "eq" => Op::Eq,
            "ult" => Op::Ult,
            "slt" => Op::Slt,
            "shl" => Op::Shl,
            "shr" => Op::Shr,
            "sar" => Op::Sar,
            "concat" => Op::Concat,
            "zext" => Op::Zext,
            "sext" => Op::Sext,
            "mux" => Op::Mux,
            "ror" => Op::ReduceOr,
            "rand" => Op::ReduceAnd,
            "rxor" => Op::ReduceXor,
            other => {
                if let Some(a) = other.strip_prefix("shlc:") {
                    Op::ShlC(a.parse().map_err(|_| self.err("bad shift amount"))?)
                } else if let Some(a) = other.strip_prefix("shrc:") {
                    Op::ShrC(a.parse().map_err(|_| self.err("bad shift amount"))?)
                } else if let Some(a) = other.strip_prefix("sarc:") {
                    Op::SarC(a.parse().map_err(|_| self.err("bad shift amount"))?)
                } else if let Some(s) = other.strip_prefix("slice:") {
                    let (hi, lo) = s
                        .split_once(':')
                        .ok_or_else(|| self.err("bad slice bounds"))?;
                    Op::Slice {
                        hi: hi.parse().map_err(|_| self.err("bad slice hi"))?,
                        lo: lo.parse().map_err(|_| self.err("bad slice lo"))?,
                    }
                } else {
                    return Err(self.err(format!("unknown opcode `{other}`")));
                }
            }
        };
        Ok(op)
    }

    fn parse_next(&mut self, rest: &[&str]) -> Result<(), ParseError> {
        if rest.len() != 2 {
            return Err(self.err("next: expected `next %reg %sig`"));
        }
        let reg = self.parse_ref(rest[0])?;
        let next = self.parse_ref(rest[1])?;
        self.pending_next.push((self.line_no, reg, next));
        Ok(())
    }

    fn parse_mem(&mut self, head: &str, rest: &[&str]) -> Result<(), ParseError> {
        let idx = self.parse_memref(head)?;
        if rest.first() != Some(&"mem") || rest.len() < 4 {
            return Err(self.err("mem: expected `@N mem <name> <words> <width> kind=.. acc=..`"));
        }
        if idx as usize != self.netlist.num_mems() {
            return Err(self.err("memories must be declared in order"));
        }
        let name = rest[1];
        if self.netlist.iter_mems().any(|(_, m)| m.name == name) {
            return Err(self.err(format!("duplicate memory name `{name}`")));
        }
        let words: u32 = rest[2].parse().map_err(|_| self.err("bad words"))?;
        if words == 0 {
            return Err(self.err(format!("memory `{name}` has no words")));
        }
        let width = self.parse_width(rest[3])?;
        let mut meta = StateMeta::memory(false);
        for kv in &rest[4..] {
            let (k, v) = kv.split_once('=').ok_or_else(|| self.err(format!("bad attr `{kv}`")))?;
            match k {
                "kind" => {
                    meta.kind = StateKind::parse_tag(v)
                        .ok_or_else(|| self.err(format!("bad kind `{v}`")))?;
                }
                "acc" => meta.attacker_accessible = v == "1",
                other => return Err(self.err(format!("unknown mem attr `{other}`"))),
            }
        }
        self.netlist.memory(name, words, width, meta);
        Ok(())
    }

    fn parse_meminit(&mut self, rest: &[&str]) -> Result<(), ParseError> {
        let idx = self.parse_memref(rest.first().ok_or_else(|| self.err("missing mem ref"))?)?;
        let (mid, m) = self
            .netlist
            .iter_mems()
            .nth(idx as usize)
            .ok_or_else(|| self.err(format!("undefined memory @{idx}")))?;
        let width = m.width;
        let words = m.words;
        let vals: Result<Vec<Bv>, ParseError> = rest[1..]
            .iter()
            .map(|t| {
                t.parse::<u64>()
                    .map(|v| Bv::new(width, v))
                    .map_err(|_| self.err("bad meminit value"))
            })
            .collect();
        let vals = vals?;
        if vals.len() as u32 != words {
            return Err(self.err("meminit length mismatch"));
        }
        self.netlist.set_mem_init(mid, vals);
        Ok(())
    }

    fn parse_write(&mut self, rest: &[&str]) -> Result<(), ParseError> {
        if rest.len() != 4 {
            return Err(self.err("write: expected `write @m en=%e addr=%a data=%d`"));
        }
        let idx = self.parse_memref(rest[0])?;
        let mut en = None;
        let mut addr = None;
        let mut data = None;
        for kv in &rest[1..] {
            let (k, v) = kv.split_once('=').ok_or_else(|| self.err(format!("bad attr `{kv}`")))?;
            let w = self.sig(self.parse_ref(v)?)?;
            match k {
                "en" => en = Some(w),
                "addr" => addr = Some(w),
                "data" => data = Some(w),
                other => return Err(self.err(format!("unknown write attr `{other}`"))),
            }
        }
        let (mid, mem) = self
            .netlist
            .iter_mems()
            .nth(idx as usize)
            .ok_or_else(|| self.err(format!("undefined memory @{idx}")))?;
        let (en, addr, data) = match (en, addr, data) {
            (Some(e), Some(a), Some(d)) => (e, a, d),
            _ => return Err(self.err("write needs en, addr and data")),
        };
        if en.width() != 1 {
            return Err(self.err(format!("write enable is {} bits, not 1", en.width())));
        }
        if data.width() != mem.width {
            return Err(self.err(format!(
                "write data width {} differs from memory `{}`'s width {}",
                data.width(),
                mem.name,
                mem.width
            )));
        }
        self.netlist.mem_write(mid, en, addr, data);
        Ok(())
    }
}

/// Emits a memory's metadata line for documentation purposes.
pub fn describe_memory(m: &Memory) -> String {
    format!(
        "{}: {} x {} bits ({} write ports, kind={})",
        m.name,
        m.words,
        m.width,
        m.write_ports.len(),
        m.meta.kind
    )
}

/// Round-trips a netlist through the textual format. Intended for tests:
/// emits, reparses and re-emits, asserting the two emissions are identical.
///
/// # Panics
///
/// Panics if the round-trip output differs or the re-parse fails.
pub fn assert_roundtrip(netlist: &Netlist) {
    let text1 = emit(netlist);
    let parsed = parse(&text1).expect("reparse of emitted netlist");
    let text2 = emit(&parsed);
    assert_eq!(text1, text2, "textual round-trip mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::StateMeta;

    fn example() -> Netlist {
        let mut n = Netlist::new("ex");
        let en = n.input("en", 1);
        let r = n.reg("count", 8, Some(Bv::new(8, 3)), StateMeta::ip_register());
        let one = n.lit(8, 1);
        let inc = n.add(r.wire(), one);
        let nxt = n.mux(en, inc, r.wire());
        n.connect_reg(r, nxt);
        let mem = n.memory("ram", 4, 8, StateMeta::memory(true));
        n.set_mem_init(mem, vec![Bv::new(8, 9); 4]);
        let addr = n.slice(r.wire(), 1, 0);
        let rd = n.mem_read(mem, addr);
        n.mem_write(mem, en, addr, rd);
        n.mark_output("count", r.wire());
        n.set_name(inc, "inc");
        n
    }

    #[test]
    fn roundtrip_counter_with_memory() {
        assert_roundtrip(&example());
    }

    #[test]
    fn parse_rejects_undefined_signal() {
        let e = parse("netlist t\n%0 op add 8 %5 %5\nend").unwrap_err();
        assert!(e.msg.contains("undefined signal"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parse_rejects_redefinition() {
        let e = parse("netlist t\n%0 input a 1\n%0 input b 1\nend").unwrap_err();
        assert!(e.msg.contains("redefinition"), "{e}");
    }

    #[test]
    fn parse_preserves_metadata() {
        let text = emit(&example());
        let parsed = parse(&text).unwrap();
        let r = parsed.find("count").unwrap();
        match parsed.node(r.id()) {
            Node::Reg(info) => {
                assert_eq!(info.meta.kind, StateKind::IpRegister);
                assert!(info.meta.attacker_accessible);
                assert_eq!(info.init, Some(Bv::new(8, 3)));
            }
            _ => panic!("expected reg"),
        }
        let (_, mem) = parsed.iter_mems().next().unwrap();
        assert_eq!(mem.init.as_ref().unwrap()[0], Bv::new(8, 9));
    }

    #[test]
    fn parsed_netlist_passes_check() {
        let parsed = parse(&emit(&example())).unwrap();
        parsed.check().unwrap();
    }

    #[test]
    fn malformed_netlists_return_errors_naming_the_line() {
        // Each body's last line is the offending one.
        let cases = [
            ("next width differs from its register", "%0 reg r 8\n%1 input a 4\nnext %0 %1"),
            ("next on a non-register", "%0 input a 8\nnext %0 %0"),
            ("second next for one register", "%0 reg r 8\nnext %0 %0\nnext %0 %0"),
            ("input of width 0", "%0 input a 0"),
            ("input of width 65", "%0 input a 65"),
            ("const of width 0", "%0 const 0'd1"),
            ("const of width 70", "%0 const 70'd1"),
            ("reg of width 0", "%0 reg r 0"),
            ("mem of width 0", "@0 mem ram 4 0"),
            ("mem with 0 words", "@0 mem ram 0 8"),
            (
                "write data width differs from its memory",
                "@0 mem ram 4 8\n%0 input en 1\n%1 input d 4\nwrite @0 en=%0 addr=%0 data=%1",
            ),
            ("duplicate signal name", "%0 input a 1\n%1 reg a 1"),
            ("duplicate output", "%0 input a 1\noutput o %0\noutput o %0"),
            ("duplicate memory name", "@0 mem ram 4 8\n@1 mem ram 4 8"),
            (
                "write enable wider than 1 bit",
                "@0 mem ram 4 8\n%0 input en 2\n%1 input d 8\nwrite @0 en=%0 addr=%0 data=%1",
            ),
            ("netlist after a definition", "%0 input a 1\nnetlist u"),
            ("id at or above the line count", "%4294967295 input a 1"),
        ];
        for (what, body) in cases {
            let src = format!("netlist t\n{body}\nend\n");
            let err = std::panic::catch_unwind(|| parse(&src))
                .unwrap_or_else(|_| panic!("{what}: parse panicked"))
                .expect_err(what);
            assert_eq!(err.line, body.lines().count() + 1, "{what}: {err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let n = parse("# header\n\nnetlist t\n%0 input a 4\noutput a %0\nend\n").unwrap();
        assert!(n.find("a").is_some());
    }
}
