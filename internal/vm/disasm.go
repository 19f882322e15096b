package vm

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/source"
)

// Disasm renders the flat op listing with block labels and, for access
// ops, the access record and its source position ("line:col", the same
// positions internal/diag renders) — the output of the CLIs'
// -dump-bytecode flag.
func (p *Program) Disasm() string {
	fn := p.Source.Fn
	var sb strings.Builder
	fmt.Fprintf(&sb, "bytecode %s: %d ops, %d consts, %d counters, maxstack %d\n",
		fn.Name, len(p.Code), len(p.Consts), p.Source.Counters, p.MaxStack)
	for pc, op := range p.Code {
		if int(p.BlockPC[p.PcBlock[pc]]) == pc {
			fmt.Fprintf(&sb, "b%d:\n", p.PcBlock[pc])
		}
		fmt.Fprintf(&sb, "  %4d  %-9s%s\n", pc, op.Code, p.operands(fn, pc, op))
	}
	return sb.String()
}

// operands renders one op's operand fields symbolically.
func (p *Program) operands(fn *ir.Fn, pc int, op Op) string {
	local := func(id int32) string {
		if int(id) < len(fn.Locals) {
			return fn.Locals[id].Name
		}
		return fmt.Sprintf("l%d", id)
	}
	access := func(id int32) string {
		if a := fn.AccessByID(int(id)); a != nil {
			return a.String()
		}
		return fmt.Sprintf("a%d", id)
	}
	switch op.Code {
	case OpConst:
		return fmt.Sprintf(" %s", p.Consts[op.A])
	case OpLocal, OpElem, OpAssign, OpSetIdx, OpSetElem:
		return " " + local(op.A)
	case OpBin:
		return " " + source.BinOp(op.A).String()
	case OpUn:
		return " " + source.UnOp(op.A).String()
	case OpBuiltin:
		return fmt.Sprintf(" %s/%d", p.Builtins[op.A], op.B)
	case OpPrint:
		return fmt.Sprintf(" p%d (%d exprs)", op.A, op.B)
	case OpJump:
		return fmt.Sprintf(" -> %d (b%d)", op.A, p.PcBlock[op.A])
	case OpBranch:
		return fmt.Sprintf(" -> %d (b%d) : %d (b%d)", op.A, p.PcBlock[op.A], op.B, p.PcBlock[op.B])
	case OpGet, OpGet0:
		return fmt.Sprintf(" %s, dst %s, c%d    ; %s", access(op.A), local(op.B), op.C, pos(fn, op.A))
	case OpGetTC:
		return fmt.Sprintf(" %s [. %s %s], dst %s, c%d    ; %s", access(op.A), source.BinOp(op.X), p.Consts[op.Y], local(op.B), op.C, pos(fn, op.A))
	case OpPut, OpPut0:
		return fmt.Sprintf(" %s, c%d    ; %s", access(op.A), op.C, pos(fn, op.A))
	case OpStore, OpStore0, OpSync, OpSync0:
		return fmt.Sprintf(" %s    ; %s", access(op.A), pos(fn, op.A))
	case OpSyncCtr:
		return fmt.Sprintf(" c%d", op.A)
	case OpBinLL:
		return fmt.Sprintf(" %s, %s, %s", source.BinOp(op.A), local(op.B), local(op.C))
	case OpBinLC:
		return fmt.Sprintf(" %s, %s, %s", source.BinOp(op.A), local(op.B), p.Consts[op.C])
	case OpBinCL:
		return fmt.Sprintf(" %s, %s, %s", source.BinOp(op.A), p.Consts[op.B], local(op.C))
	case OpBinTL:
		return fmt.Sprintf(" %s, %s", source.BinOp(op.A), local(op.B))
	case OpBinTC:
		return fmt.Sprintf(" %s, %s", source.BinOp(op.A), p.Consts[op.B])
	case OpMove:
		return fmt.Sprintf(" %s <- %s", local(op.A), local(op.B))
	case OpLoadK:
		return fmt.Sprintf(" %s <- %s", local(op.A), p.Consts[op.B])
	case OpElemL, OpSetIdxL:
		return fmt.Sprintf(" %s[%s]", local(op.A), local(op.B))
	case OpBinMC:
		return fmt.Sprintf(" %s, myproc, %s", source.BinOp(op.A), p.Consts[op.B])
	case OpBinML:
		return fmt.Sprintf(" %s, myproc, %s", source.BinOp(op.A), local(op.B))
	case OpIncLC:
		return fmt.Sprintf(" %s += %s", local(op.A), p.Consts[op.B])
	case OpBin2MCL:
		return fmt.Sprintf(" (myproc %s %s) %s %s", source.BinOp(op.X), p.Consts[op.B], source.BinOp(op.Y), local(op.C))
	case OpBin2MCC:
		return fmt.Sprintf(" (myproc %s %s) %s %s", source.BinOp(op.X), p.Consts[op.B], source.BinOp(op.Y), p.Consts[op.C])
	case OpBin2TCL:
		return fmt.Sprintf(" (. %s %s) %s %s", source.BinOp(op.X), p.Consts[op.B], source.BinOp(op.Y), local(op.C))
	case OpBin2TCC:
		return fmt.Sprintf(" (. %s %s) %s %s", source.BinOp(op.X), p.Consts[op.B], source.BinOp(op.Y), p.Consts[op.C])
	case OpBin2TLL:
		return fmt.Sprintf(" (. %s %s) %s %s", source.BinOp(op.X), local(op.B), source.BinOp(op.Y), local(op.C))
	case OpBin2TLC:
		return fmt.Sprintf(" (. %s %s) %s %s", source.BinOp(op.X), local(op.B), source.BinOp(op.Y), p.Consts[op.C])
	case OpBin2LCL:
		return fmt.Sprintf(" (%s %s %s) %s %s", local(op.A), source.BinOp(op.X), p.Consts[op.B], source.BinOp(op.Y), local(op.C))
	case OpBin2LCC:
		return fmt.Sprintf(" (%s %s %s) %s %s", local(op.A), source.BinOp(op.X), p.Consts[op.B], source.BinOp(op.Y), p.Consts[op.C])
	case OpBrLC:
		return fmt.Sprintf(" %s %s %s -> %d (b%d) : %d (b%d)", local(op.C), source.BinOp(op.X), p.Consts[op.Y],
			op.A, p.PcBlock[op.A], op.B, p.PcBlock[op.B])
	case OpIncJump:
		return fmt.Sprintf(" %s += %s -> %d (b%d)", local(op.A), p.Consts[op.B], op.C, p.PcBlock[op.C])
	case OpSetElemX:
		return fmt.Sprintf(" %s[.] <- %s", local(op.A), local(op.B))
	case OpSetElemLL:
		return fmt.Sprintf(" %s[%s] <- %s", local(op.A), local(op.B), local(op.C))
	default:
		return ""
	}
}

// pos renders an access's source position, or "?" when the access carries
// none (compiler-synthesized operations).
func pos(fn *ir.Fn, accID int32) string {
	if a := fn.AccessByID(int(accID)); a != nil && a.Pos.IsValid() {
		return a.Pos.String()
	}
	return "?"
}
