// Package irparse parses the textual form of the internal/ir intermediate
// representation, so that example programs and the dangsan-run tool can
// compile and execute standalone .ir files. The syntax mirrors a simplified
// LLVM assembly; see the package tests and examples/programs for grammar
// examples.
package irparse

import (
	"fmt"
	"strconv"
	"strings"

	"dangsan/internal/ir"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

type parser struct {
	lines []string
	pos   int // current line index
	mod   *ir.Module
}

// Parse parses a module and finalizes it.
func Parse(src string) (*ir.Module, error) {
	p := &parser{
		lines: strings.Split(src, "\n"),
		mod:   ir.NewModule(),
	}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	if err := p.mod.Finalize(); err != nil {
		return nil, err
	}
	return p.mod, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// next returns the next non-empty line with comments stripped, or "" at EOF.
func (p *parser) next() string {
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line
		}
		p.pos++
	}
	return ""
}

func (p *parser) parseModule() error {
	for {
		line := p.next()
		if line == "" {
			return nil
		}
		switch {
		case strings.HasPrefix(line, "global "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return p.errf("global syntax: global <name> <size>")
			}
			size, err := strconv.ParseUint(fields[2], 0, 64)
			if err != nil {
				return p.errf("bad global size %q", fields[2])
			}
			p.mod.Globals = append(p.mod.Globals, ir.Global{Name: fields[1], Size: size})
			p.pos++
		case strings.HasPrefix(line, "func "):
			if err := p.parseFunc(line); err != nil {
				return err
			}
		default:
			return p.errf("expected 'global' or 'func', got %q", line)
		}
	}
}

// parseFunc parses a function from its header line through the closing '}'.
func (p *parser) parseFunc(header string) error {
	rest := strings.TrimPrefix(header, "func ")
	open := strings.Index(rest, "(")
	closeIdx := strings.Index(rest, ")")
	if open < 0 || closeIdx < open || !strings.HasSuffix(rest, "{") {
		return p.errf("function header syntax: func name(args...) [type] {")
	}
	f := &ir.Func{Name: strings.TrimSpace(rest[:open]), Ret: ir.Void}
	if f.Name == "" {
		return p.errf("missing function name")
	}
	regs := map[string]int{}
	if args := strings.TrimSpace(rest[open+1 : closeIdx]); args != "" {
		for _, a := range strings.Split(args, ",") {
			fields := strings.Fields(strings.TrimSpace(a))
			if len(fields) != 2 {
				return p.errf("parameter syntax: <name> <type>")
			}
			ty, err := p.parseType(fields[1])
			if err != nil {
				return err
			}
			regs[fields[0]] = len(f.Params)
			f.Params = append(f.Params, ir.Param{Name: fields[0], Type: ty})
		}
	}
	if tail := strings.TrimSpace(strings.TrimSuffix(rest[closeIdx+1:], "{")); tail != "" {
		ty, err := p.parseType(tail)
		if err != nil {
			return err
		}
		f.Ret = ty
	}
	p.pos++

	// First pass: collect blocks and raw lines; branch targets resolve at
	// the end.
	type rawBr struct {
		blockIdx int
		line     int
		cond     ir.Value
		hasCond  bool
		then     string
		els      string
	}
	var pendingBr []rawBr
	labelIdx := map[string]int{}
	var cur *ir.Block
	terminated := false

	startBlock := func(name string) error {
		if _, dup := labelIdx[name]; dup {
			return p.errf("duplicate label %q", name)
		}
		if cur != nil && !terminated {
			return p.errf("block %s lacks a terminator (no fallthrough)", cur.Name)
		}
		cur = &ir.Block{Name: name}
		labelIdx[name] = len(f.Blocks)
		f.Blocks = append(f.Blocks, cur)
		terminated = false
		return nil
	}

	for {
		line := p.next()
		if line == "" {
			return p.errf("unexpected end of file in func %s", f.Name)
		}
		if line == "}" {
			p.pos++
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			if err := startBlock(strings.TrimSuffix(line, ":")); err != nil {
				return err
			}
			p.pos++
			continue
		}
		if cur == nil {
			if err := startBlock("entry"); err != nil {
				return err
			}
		}
		if terminated {
			return p.errf("instruction after terminator in block %s", cur.Name)
		}
		switch {
		case strings.HasPrefix(line, "br "):
			args := splitArgs(strings.TrimPrefix(line, "br "))
			switch len(args) {
			case 1:
				pendingBr = append(pendingBr, rawBr{
					blockIdx: len(f.Blocks) - 1, line: p.pos + 1, then: args[0],
				})
			case 3:
				cond, err := p.parseValue(args[0], regs)
				if err != nil {
					return err
				}
				pendingBr = append(pendingBr, rawBr{
					blockIdx: len(f.Blocks) - 1, line: p.pos + 1,
					cond: cond, hasCond: true, then: args[1], els: args[2],
				})
			default:
				return p.errf("br syntax: 'br label' or 'br cond, l1, l2'")
			}
			terminated = true
		case line == "ret":
			cur.Term = ir.Terminator{Kind: ir.TermRet}
			terminated = true
		case strings.HasPrefix(line, "ret "):
			v, err := p.parseValue(strings.TrimSpace(strings.TrimPrefix(line, "ret ")), regs)
			if err != nil {
				return err
			}
			cur.Term = ir.Terminator{Kind: ir.TermRet, HasVal: true, Cond: v}
			terminated = true
		default:
			in, err := p.parseInstr(line, regs)
			if err != nil {
				return err
			}
			cur.Instrs = append(cur.Instrs, in)
		}
		p.pos++
	}
	if cur == nil {
		return p.errf("func %s has no body", f.Name)
	}
	if !terminated {
		return p.errf("func %s: last block %s lacks a terminator", f.Name, cur.Name)
	}
	for _, br := range pendingBr {
		b := f.Blocks[br.blockIdx]
		then, ok := labelIdx[br.then]
		if !ok {
			return &ParseError{Line: br.line, Msg: fmt.Sprintf("unknown label %q", br.then)}
		}
		if br.hasCond {
			els, ok := labelIdx[br.els]
			if !ok {
				return &ParseError{Line: br.line, Msg: fmt.Sprintf("unknown label %q", br.els)}
			}
			b.Term = ir.Terminator{Kind: ir.TermCondBr, Cond: br.cond, Then: then, Else: els}
		} else {
			b.Term = ir.Terminator{Kind: ir.TermBr, Then: then}
		}
	}
	if _, dup := p.mod.Funcs[f.Name]; dup {
		return p.errf("duplicate function %q", f.Name)
	}
	p.mod.Funcs[f.Name] = f
	return nil
}

func (p *parser) parseType(s string) (ir.Type, error) {
	switch s {
	case "i64":
		return ir.I64, nil
	case "ptr":
		return ir.Ptr, nil
	case "void":
		return ir.Void, nil
	default:
		return 0, p.errf("unknown type %q", s)
	}
}

// parseValue parses a register (rN or a parameter name) or an integer
// constant (decimal, hex, or negative).
func (p *parser) parseValue(s string, regs map[string]int) (ir.Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return ir.Value{}, p.errf("empty operand")
	}
	if n, ok := regs[s]; ok {
		return ir.R(n), nil
	}
	if len(s) > 1 && s[0] == 'r' {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 {
			return ir.R(n), nil
		}
	}
	if i, err := strconv.ParseInt(s, 0, 64); err == nil {
		return ir.C(uint64(i)), nil
	}
	if u, err := strconv.ParseUint(s, 0, 64); err == nil {
		return ir.C(u), nil
	}
	return ir.Value{}, p.errf("bad operand %q", s)
}

// parseAddr parses a bracketed address operand "[v]".
func (p *parser) parseAddr(s string, regs map[string]int) (ir.Value, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return ir.Value{}, p.errf("expected [address], got %q", s)
	}
	return p.parseValue(s[1:len(s)-1], regs)
}

func splitArgs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, x := range parts {
		if t := strings.TrimSpace(x); t != "" {
			out = append(out, t)
		}
	}
	return out
}

var binOps = map[string]ir.Op{
	"mov": ir.OpMov, "add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul,
	"div": ir.OpDiv, "rem": ir.OpRem, "and": ir.OpAnd, "or": ir.OpOr,
	"xor": ir.OpXor, "shl": ir.OpShl, "shr": ir.OpShr,
}

var preds = map[string]ir.Pred{
	"eq": ir.PredEQ, "ne": ir.PredNE, "lt": ir.PredLT, "le": ir.PredLE,
	"gt": ir.PredGT, "ge": ir.PredGE, "slt": ir.PredSLT, "sgt": ir.PredSGT,
}

// parseInstr parses one non-terminator instruction.
func (p *parser) parseInstr(line string, regs map[string]int) (ir.Instr, error) {
	var dst = -1
	rest := line
	if eq := strings.Index(line, "="); eq >= 0 && !strings.Contains(line[:eq], "[") {
		dstTok := strings.TrimSpace(line[:eq])
		v, err := p.parseValue(dstTok, regs)
		if err != nil || !v.IsReg {
			return ir.Instr{}, p.errf("bad destination %q", dstTok)
		}
		dst = v.Reg
		rest = strings.TrimSpace(line[eq+1:])
	}
	op, rest := splitWord(rest)
	_, isBinOp := binOps[op]
	switch {
	case op == "mov":
		args := splitArgs(rest)
		if len(args) != 1 {
			return ir.Instr{}, p.errf("mov takes one operand")
		}
		v, err := p.parseValue(args[0], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpMov, Dst: dst, A: v}, nil

	case isBinOp:
		args := splitArgs(rest)
		in := ir.Instr{Op: binOps[op], Dst: dst}
		if len(args) != 2 {
			return ir.Instr{}, p.errf("%s takes two operands", op)
		}
		var err error
		if in.A, err = p.parseValue(args[0], regs); err != nil {
			return ir.Instr{}, err
		}
		if in.B, err = p.parseValue(args[1], regs); err != nil {
			return ir.Instr{}, err
		}
		return in, nil

	case op == "icmp":
		predTok, rest2 := splitWord(rest)
		pred, ok := preds[predTok]
		if !ok {
			return ir.Instr{}, p.errf("unknown predicate %q", predTok)
		}
		args := splitArgs(rest2)
		if len(args) != 2 {
			return ir.Instr{}, p.errf("icmp takes two operands")
		}
		a, err := p.parseValue(args[0], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		b, err := p.parseValue(args[1], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpICmp, Dst: dst, Pred: pred, A: a, B: b}, nil

	case op == "gep":
		args := splitArgs(rest)
		if len(args) != 2 {
			return ir.Instr{}, p.errf("gep takes base, offset")
		}
		a, err := p.parseValue(args[0], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		b, err := p.parseValue(args[1], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpGep, Dst: dst, A: a, B: b}, nil

	case op == "load":
		tyTok, rest2 := splitWord(rest)
		ty, err := p.parseType(tyTok)
		if err != nil {
			return ir.Instr{}, err
		}
		addr, err := p.parseAddr(rest2, regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpLoad, Dst: dst, LoadType: ty, A: addr}, nil

	case op == "store":
		tyTok, rest2 := splitWord(rest)
		ty, err := p.parseType(tyTok)
		if err != nil {
			return ir.Instr{}, err
		}
		comma := strings.LastIndex(rest2, ",")
		if comma < 0 {
			return ir.Instr{}, p.errf("store syntax: store <type> [addr], <val>")
		}
		addr, err := p.parseAddr(rest2[:comma], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		val, err := p.parseValue(rest2[comma+1:], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpStore, Dst: -1, StoreType: ty, A: addr, B: val}, nil

	case op == "regptr":
		comma := strings.LastIndex(rest, ",")
		if comma < 0 {
			return ir.Instr{}, p.errf("regptr syntax: regptr [addr], <val>")
		}
		addr, err := p.parseAddr(rest[:comma], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		val, err := p.parseValue(rest[comma+1:], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpRegPtr, Dst: -1, A: addr, B: val}, nil

	case op == "alloca":
		size, err := strconv.ParseUint(strings.TrimSpace(rest), 0, 64)
		if err != nil {
			return ir.Instr{}, p.errf("alloca size %q", rest)
		}
		return ir.Instr{Op: ir.OpAlloca, Dst: dst, Size: size}, nil

	case op == "global":
		return ir.Instr{Op: ir.OpGlobal, Dst: dst, Name: strings.TrimSpace(rest)}, nil

	case op == "malloc":
		v, err := p.parseValue(rest, regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpMalloc, Dst: dst, A: v}, nil

	case op == "free":
		v, err := p.parseValue(rest, regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpFree, Dst: -1, A: v}, nil

	case op == "realloc":
		args := splitArgs(rest)
		if len(args) != 2 {
			return ir.Instr{}, p.errf("realloc takes ptr, size")
		}
		a, err := p.parseValue(args[0], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		b, err := p.parseValue(args[1], regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpRealloc, Dst: dst, A: a, B: b}, nil

	case op == "call" || op == "spawn":
		name, args, err := p.parseCall(rest, regs)
		if err != nil {
			return ir.Instr{}, err
		}
		o := ir.OpCall
		if op == "spawn" {
			o = ir.OpSpawn
		}
		return ir.Instr{Op: o, Dst: dst, Name: name, Args: args}, nil

	case op == "join":
		v, err := p.parseValue(rest, regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpJoin, Dst: -1, A: v}, nil

	case op == "print":
		v, err := p.parseValue(rest, regs)
		if err != nil {
			return ir.Instr{}, err
		}
		return ir.Instr{Op: ir.OpPrint, Dst: -1, A: v}, nil

	default:
		return ir.Instr{}, p.errf("unknown instruction %q", op)
	}
}

func (p *parser) parseCall(s string, regs map[string]int) (string, []ir.Value, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(s), ")") {
		return "", nil, p.errf("call syntax: name(args...)")
	}
	name := strings.TrimSpace(s[:open])
	inner := strings.TrimSpace(s)
	inner = inner[open+1 : len(inner)-1]
	var args []ir.Value
	if strings.TrimSpace(inner) != "" {
		for _, a := range splitArgs(inner) {
			v, err := p.parseValue(a, regs)
			if err != nil {
				return "", nil, err
			}
			args = append(args, v)
		}
	}
	return name, args, nil
}

func splitWord(s string) (string, string) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}
