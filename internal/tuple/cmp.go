package tuple

// CmpOp is a comparison operator appearing in selection and join predicates.
// It lives in the tuple package because it is shared by every layer that
// touches predicates: the SQL AST, query graphs, the optimizer, the executor,
// and selectivity estimation.
type CmpOp uint8

const (
	CmpInvalid CmpOp = iota
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the operator to (a, b).
func (op CmpOp) Eval(a, b Value) bool {
	c := a.Compare(b)
	switch op {
	case CmpEQ:
		return c == 0
	case CmpNE:
		return c != 0
	case CmpLT:
		return c < 0
	case CmpLE:
		return c <= 0
	case CmpGT:
		return c > 0
	case CmpGE:
		return c >= 0
	default:
		// Programmer invariant: CmpOp values come from ParseOp or the
		// package constants, both exhaustively handled above.
		panic("tuple: eval of invalid CmpOp")
	}
}

// ParseCmpOp maps SQL operator text to a CmpOp; ok is false for unknown text.
func ParseCmpOp(s string) (CmpOp, bool) {
	switch s {
	case "=", "==":
		return CmpEQ, true
	case "<>", "!=":
		return CmpNE, true
	case "<":
		return CmpLT, true
	case "<=":
		return CmpLE, true
	case ">":
		return CmpGT, true
	case ">=":
		return CmpGE, true
	default:
		return CmpInvalid, false
	}
}
