package prog

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"perfclone/internal/isa"
)

// DumpAsm renders the program in the textual assembly format Parse reads:
// a header line, one `.segment`/`.data` pair per non-empty data segment,
// `.reserve` directives for zeroed segments, and the block listing of
// Disassemble. DumpAsm → Parse is a lossless round trip.
func (p *Program) DumpAsm() string {
	var sb strings.Builder
	p.writeText(&sb, true) // a strings.Builder never fails a write
	return sb.String()
}

// WriteAsm writes DumpAsm's text to w without building it as one
// string: the store hashes a program by streaming it into a digest.
func (p *Program) WriteAsm(w io.Writer) error {
	return p.writeText(w, true)
}

// Disassemble renders the whole program as text.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	p.writeText(&sb, false)
	return sb.String()
}

// writeText is the one assembly writer: the header and data image when
// data is set, then the block listing. It formats into one reused
// buffer, handed to w whenever it passes asmFlush bytes.
func (p *Program) writeText(w io.Writer, data bool) error {
	const asmFlush = 16 << 10
	buf := make([]byte, 0, asmFlush+256)
	var err error
	line := func() {
		buf = append(buf, '\n')
		if len(buf) >= asmFlush && err == nil {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
	}
	if data {
		buf = append(append(buf, ".program "...), p.Name...)
		line()
		buf = strconv.AppendUint(append(buf, ".memsize "...), p.MemSize, 10)
		line()
		for _, s := range p.Segments {
			if allZeroBytes(s.Data) {
				buf = append(append(append(buf, ".reserve "...), s.Name...), ' ')
				buf = strconv.AppendInt(append(strconv.AppendUint(buf, s.Base, 10), ' '), int64(len(s.Data)), 10)
				line()
				continue
			}
			buf = append(append(append(buf, ".segment "...), s.Name...), ' ')
			buf = strconv.AppendUint(buf, s.Base, 10)
			line()
			const perLine = 32
			for off := 0; off < len(s.Data); off += perLine {
				buf = hex.AppendEncode(append(buf, ".data "...), s.Data[off:min(off+perLine, len(s.Data))])
				line()
			}
		}
	}
	buf = append(append(buf, "; program "...), p.Name...)
	buf = strconv.AppendInt(append(buf, ": "...), int64(len(p.Blocks)), 10)
	buf = strconv.AppendInt(append(buf, " blocks, "...), int64(p.NumStaticInsts()), 10)
	buf = append(buf, " insts"...)
	line()
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		buf = append(strconv.AppendInt(append(buf, ".B"...), int64(bi), 10), ':')
		if b.Label != "" {
			buf = append(append(buf, " ; "...), b.Label...)
		}
		line()
		for ii := range b.Insts {
			buf = b.Insts[ii].AppendText(append(buf, '\t'))
			line()
		}
	}
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

// zeroBlock is compared against a segment a block at a time: a zeroed
// image is checked at memequal speed, not a byte per loop iteration.
var zeroBlock [4096]byte

func allZeroBytes(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroBlock))
		if !bytes.Equal(b[:n], zeroBlock[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// opByName maps mnemonics back to opcodes.
var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

// Parse reads the DumpAsm format and reconstructs the program.
func Parse(r io.Reader) (*Program, error) {
	p := &Program{Entry: 0}
	var curSeg *Segment
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	curBlock := -1
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("prog: parse line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		// Strip trailing comments (but keep .B labels' "; name" form).
		switch {
		case strings.HasPrefix(line, ".program "):
			p.Name = strings.TrimSpace(strings.TrimPrefix(line, ".program "))
		case strings.HasPrefix(line, ".memsize "):
			v, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, ".memsize ")), 10, 64)
			if err != nil {
				return nil, fail("bad memsize: %v", err)
			}
			p.MemSize = v
		case strings.HasPrefix(line, ".reserve "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return nil, fail("want `.reserve name base len`")
			}
			base, err1 := strconv.ParseUint(f[2], 10, 64)
			n, err2 := strconv.Atoi(f[3])
			if err1 != nil || err2 != nil || n < 0 {
				return nil, fail("bad reserve operands")
			}
			p.Segments = append(p.Segments, Segment{Name: f[1], Base: base, Data: make([]byte, n)})
			curSeg = nil
		case strings.HasPrefix(line, ".segment "):
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fail("want `.segment name base`")
			}
			base, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				return nil, fail("bad segment base: %v", err)
			}
			p.Segments = append(p.Segments, Segment{Name: f[1], Base: base})
			curSeg = &p.Segments[len(p.Segments)-1]
		case strings.HasPrefix(line, ".data "):
			if curSeg == nil {
				return nil, fail(".data outside .segment")
			}
			raw, err := hex.DecodeString(strings.TrimSpace(strings.TrimPrefix(line, ".data ")))
			if err != nil {
				return nil, fail("bad hex: %v", err)
			}
			curSeg.Data = append(curSeg.Data, raw...)
		case strings.HasPrefix(line, ";"):
			// Listing header comment.
		case strings.HasPrefix(line, ".B"):
			// ".B12:" or ".B12: ; label"
			rest := strings.TrimPrefix(line, ".B")
			colon := strings.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fail("bad block label %q", line)
			}
			idx, err := strconv.Atoi(rest[:colon])
			if err != nil || idx != len(p.Blocks) {
				return nil, fail("blocks must appear in order; got %q", line)
			}
			label := ""
			if i := strings.Index(rest, ";"); i >= 0 {
				label = strings.TrimSpace(rest[i+1:])
			}
			p.Blocks = append(p.Blocks, Block{Label: label})
			curBlock = idx
		default:
			if curBlock < 0 {
				return nil, fail("instruction before first block: %q", line)
			}
			in, err := parseInst(line)
			if err != nil {
				return nil, fail("%v", err)
			}
			p.Blocks[curBlock].Insts = append(p.Blocks[curBlock].Insts, in)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prog: parse: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("prog: parse: %w", err)
	}
	return p, nil
}

// parseReg decodes "r5", "f3" or "-".
func parseReg(s string) (isa.Reg, error) {
	switch {
	case s == "-":
		return isa.NoReg, nil
	case strings.HasPrefix(s, "r"):
		v, err := strconv.Atoi(s[1:])
		if err != nil || v < 0 || v >= isa.NumIntRegs {
			return isa.NoReg, fmt.Errorf("bad register %q", s)
		}
		return isa.IntReg(v), nil
	case strings.HasPrefix(s, "f"):
		v, err := strconv.Atoi(s[1:])
		if err != nil || v < 0 || v >= isa.NumFPRegs {
			return isa.NoReg, fmt.Errorf("bad register %q", s)
		}
		return isa.FPReg(v), nil
	}
	return isa.NoReg, fmt.Errorf("bad register %q", s)
}

// parseTarget decodes ".B7".
func parseTarget(s string) (int, error) {
	if !strings.HasPrefix(s, ".B") {
		return 0, fmt.Errorf("bad target %q", s)
	}
	return strconv.Atoi(s[2:])
}

// parseMem decodes "16(r3)".
func parseMem(s string) (imm int64, base isa.Reg, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, isa.NoReg, fmt.Errorf("bad memory operand %q", s)
	}
	imm, err = strconv.ParseInt(s[:open], 10, 64)
	if err != nil {
		return 0, isa.NoReg, fmt.Errorf("bad displacement in %q", s)
	}
	base, err = parseReg(s[open+1 : len(s)-1])
	return imm, base, err
}

// parseInst decodes one listing line back into an instruction.
func parseInst(line string) (isa.Inst, error) {
	var in isa.Inst
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(fields) == 0 {
		return in, fmt.Errorf("empty instruction")
	}
	op, ok := opByName[fields[0]]
	if !ok {
		return in, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	in.Op = op
	args := fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: want %d operands, got %d", op, n, len(args))
		}
		return nil
	}
	var err error
	switch {
	case op == isa.OpHalt:
		return in, need(0)
	case op == isa.OpJmp:
		if err = need(1); err != nil {
			return in, err
		}
		in.Target, err = parseTarget(args[0])
		return in, err
	case op.IsBranch():
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rs1, err = parseReg(args[0]); err != nil {
			return in, err
		}
		if in.Rs2, err = parseReg(args[1]); err != nil {
			return in, err
		}
		in.Target, err = parseTarget(args[2])
		return in, err
	case op.IsStore():
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rs2, err = parseReg(args[0]); err != nil {
			return in, err
		}
		in.Imm, in.Rs1, err = parseMem(args[1])
		return in, err
	case op.IsLoad():
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		in.Imm, in.Rs1, err = parseMem(args[1])
		return in, err
	case op == isa.OpLui:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		in.Imm, err = strconv.ParseInt(args[1], 10, 64)
		return in, err
	case op == isa.OpAddi:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = parseReg(args[1]); err != nil {
			return in, err
		}
		in.Imm, err = strconv.ParseInt(args[2], 10, 64)
		return in, err
	case op == isa.OpFNeg || op == isa.OpCvtIF || op == isa.OpCvtFI:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		in.Rs1, err = parseReg(args[1])
		return in, err
	default:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rd, err = parseReg(args[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = parseReg(args[1]); err != nil {
			return in, err
		}
		in.Rs2, err = parseReg(args[2])
		return in, err
	}
}
