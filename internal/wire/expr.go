package wire

import (
	"fmt"

	"nexus/internal/expr"
	"nexus/internal/value"
)

// Expression node tags (wire format; append only).
const (
	exprConst uint8 = 1
	exprCol   uint8 = 2
	exprBin   uint8 = 3
	exprUn    uint8 = 4
	exprCall  uint8 = 5
	exprNil   uint8 = 6 // absent optional expression (e.g. join residual)
)

// PutExpr encodes a scalar expression tree (nil allowed, for optional
// slots).
func PutExpr(e *Encoder, x expr.Expr) {
	switch n := x.(type) {
	case nil:
		e.U8(exprNil)
	case *expr.Const:
		e.U8(exprConst)
		PutValue(e, n.Val)
	case *expr.Col:
		e.U8(exprCol)
		e.Str(n.Name)
	case *expr.Bin:
		e.U8(exprBin)
		e.U8(uint8(n.Op))
		PutExpr(e, n.L)
		PutExpr(e, n.R)
	case *expr.Un:
		e.U8(exprUn)
		e.U8(uint8(n.Op))
		PutExpr(e, n.X)
	case *expr.Call:
		e.U8(exprCall)
		e.Str(n.Name)
		e.U32(uint32(len(n.Args)))
		for _, a := range n.Args {
			PutExpr(e, a)
		}
	default:
		// Unreachable for well-formed trees; encode as nil so the
		// decoder fails loudly rather than panicking here.
		e.U8(exprNil)
	}
}

// GetExpr decodes a scalar expression tree (may return nil for the
// optional-absent tag). Its nesting counts toward the decoder's
// MaxDecodeDepth bound.
func GetExpr(d *Decoder) expr.Expr {
	if !d.enter() {
		return nil
	}
	defer d.leave()
	tag := d.U8()
	if d.err != nil {
		return nil
	}
	switch tag {
	case exprNil:
		return nil
	case exprConst:
		return &expr.Const{Val: GetValue(d)}
	case exprCol:
		return &expr.Col{Name: d.Str()}
	case exprBin:
		op := value.BinOp(d.U8())
		l := GetExpr(d)
		r := GetExpr(d)
		if d.err != nil {
			return nil
		}
		if l == nil || r == nil {
			d.err = fmt.Errorf("wire: binary expression with missing operand")
			return nil
		}
		return &expr.Bin{Op: op, L: l, R: r}
	case exprUn:
		op := value.UnOp(d.U8())
		x := GetExpr(d)
		if d.err != nil {
			return nil
		}
		if x == nil {
			d.err = fmt.Errorf("wire: unary expression with missing operand")
			return nil
		}
		return &expr.Un{Op: op, X: x}
	case exprCall:
		name := d.Str()
		n := int(d.U32())
		if d.err != nil || n > d.Remaining() {
			d.fail("call args")
			return nil
		}
		args := make([]expr.Expr, 0, n)
		for i := 0; i < n; i++ {
			a := GetExpr(d)
			if d.err != nil {
				return nil
			}
			if a == nil {
				d.err = fmt.Errorf("wire: call %q with missing argument", name)
				return nil
			}
			args = append(args, a)
		}
		return &expr.Call{Name: name, Args: args}
	}
	d.err = fmt.Errorf("wire: bad expression tag %d", tag)
	return nil
}
