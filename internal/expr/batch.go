package expr

import (
	"fmt"
	"math"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// This file implements the vectorized batch compiler: every expression
// node compiles to a batchFn producing a typed vector (vec) over all rows
// of a table in tight loops over raw payload slices, with NULLs carried in
// validity bitmaps. The row-at-a-time evalFn in eval.go remains the
// semantic oracle and the fallback used for Call leaves, whose registered
// functions only expose row-wise evaluators.
//
// Semantics mirror value.Apply/ApplyUnary exactly:
//   - comparisons use the cross-kind total order (NULL first, NULL==NULL)
//     and always yield a non-NULL bool;
//   - logical ops treat NULL as false and always yield a non-NULL bool;
//   - arithmetic propagates NULL; integer division/modulus by zero is NULL;
//   - int64 operands compare and compute as int64 (no float64 round trip).

// vec is a batch evaluation result: a typed payload, an optional validity
// bitmap (nil = all rows valid), and a stride distinguishing a broadcast
// scalar (stride 0, payload length 1) from a per-row column (stride 1).
type vec struct {
	kind   value.Kind
	bools  []bool
	ints   []int64
	floats []float64
	strs   []string
	valid  []bool
	stride int
	n      int
}

// batchFn evaluates an expression over all n rows of t.
type batchFn func(t *table.Table, n int) (*vec, error)

// null reports whether row i of the vector is NULL.
func (v *vec) null(i int) bool { return v.valid != nil && !v.valid[i*v.stride] }

// allValid reports whether no row can be NULL.
func (v *vec) allValid() bool { return v.valid == nil }

// valueAt returns row i boxed, for the generic fallback paths.
func (v *vec) valueAt(i int) value.Value {
	if v.null(i) {
		return value.Null
	}
	j := i * v.stride
	switch v.kind {
	case value.KindBool:
		return value.NewBool(v.bools[j])
	case value.KindInt64:
		return value.NewInt(v.ints[j])
	case value.KindFloat64:
		return value.NewFloat(v.floats[j])
	case value.KindString:
		return value.NewString(v.strs[j])
	}
	return value.Null
}

// truthyAt mirrors value.Truthy: only a valid bool true counts.
func (v *vec) truthyAt(i int) bool {
	return v.kind == value.KindBool && !v.null(i) && v.bools[i*v.stride]
}

// constVec broadcasts a scalar. NULL becomes an all-invalid int64 vector,
// so downstream kernels handle the bare-NULL literal through the same
// validity machinery as data NULLs.
func constVec(val value.Value) *vec {
	v := &vec{stride: 0}
	switch val.Kind() {
	case value.KindBool:
		v.kind = value.KindBool
		v.bools = []bool{val.Bool()}
	case value.KindInt64:
		v.kind = value.KindInt64
		v.ints = []int64{val.Int()}
	case value.KindFloat64:
		v.kind = value.KindFloat64
		v.floats = []float64{val.Float()}
	case value.KindString:
		v.kind = value.KindString
		v.strs = []string{val.Str()}
	default:
		v.kind = value.KindInt64
		v.ints = []int64{0}
		v.valid = []bool{false}
	}
	return v
}

// colVec wraps a table column's payload without copying.
func colVec(c *table.Column) *vec {
	v := &vec{kind: c.Kind(), valid: c.Validity(), stride: 1, n: c.Len()}
	switch c.Kind() {
	case value.KindBool:
		v.bools = c.Bools()
	case value.KindInt64:
		v.ints = c.Ints()
	case value.KindFloat64:
		v.floats = c.Floats()
	case value.KindString:
		v.strs = c.Strs()
	}
	return v
}

// column materializes the vector as a table column of n rows, sharing
// payload storage for per-row vectors.
func (v *vec) column(n int) *table.Column {
	if v.stride == 1 {
		var c *table.Column
		switch v.kind {
		case value.KindBool:
			c = table.BoolColumn(v.bools)
		case value.KindInt64:
			c = table.IntColumn(v.ints)
		case value.KindFloat64:
			c = table.FloatColumn(v.floats)
		case value.KindString:
			c = table.StringColumn(v.strs)
		}
		if v.valid != nil {
			c = c.WithValidity(v.valid)
		}
		return c
	}
	// Broadcast scalar.
	out := &vec{kind: v.kind, stride: 1, n: n}
	switch v.kind {
	case value.KindBool:
		out.bools = make([]bool, n)
		for i := range out.bools {
			out.bools[i] = v.bools[0]
		}
	case value.KindInt64:
		out.ints = make([]int64, n)
		for i := range out.ints {
			out.ints[i] = v.ints[0]
		}
	case value.KindFloat64:
		out.floats = make([]float64, n)
		for i := range out.floats {
			out.floats[i] = v.floats[0]
		}
	case value.KindString:
		out.strs = make([]string, n)
		for i := range out.strs {
			out.strs[i] = v.strs[0]
		}
	}
	if v.valid != nil {
		out.valid = make([]bool, n)
		for i := range out.valid {
			out.valid[i] = v.valid[0]
		}
	}
	return out.column(n)
}

// compileBatch builds the vectorized program for e. It succeeds for every
// well-typed expression: sub-trees it cannot vectorize (Call leaves) run
// the row evaluator internally.
func compileBatch(e Expr, sch schema.Schema) (batchFn, error) {
	switch node := e.(type) {
	case *Const:
		v := constVec(node.Val)
		return func(*table.Table, int) (*vec, error) { return v, nil }, nil
	case *Col:
		i := sch.IndexOf(node.Name)
		if i < 0 {
			return nil, fmt.Errorf("expr: unknown column %q", node.Name)
		}
		return func(t *table.Table, _ int) (*vec, error) {
			return colVec(t.Col(i)), nil
		}, nil
	case *Bin:
		l, err := compileBatch(node.L, sch)
		if err != nil {
			return nil, err
		}
		r, err := compileBatch(node.R, sch)
		if err != nil {
			return nil, err
		}
		op := node.Op
		return func(t *table.Table, n int) (*vec, error) {
			lv, err := l(t, n)
			if err != nil {
				return nil, err
			}
			rv, err := r(t, n)
			if err != nil {
				return nil, err
			}
			return binVec(op, lv, rv, n)
		}, nil
	case *Un:
		x, err := compileBatch(node.X, sch)
		if err != nil {
			return nil, err
		}
		op := node.Op
		return func(t *table.Table, n int) (*vec, error) {
			xv, err := x(t, n)
			if err != nil {
				return nil, err
			}
			return unVec(op, xv, n)
		}, nil
	case *Call:
		// Row-oracle fallback: registered functions are row-wise.
		prog, err := compileNode(node, sch)
		if err != nil {
			return nil, err
		}
		kind, err := InferKind(node, sch)
		if err != nil {
			return nil, err
		}
		outKind := nonNullKind(kind)
		return func(t *table.Table, n int) (*vec, error) {
			col := table.NewColumn(outKind, n)
			for row := 0; row < n; row++ {
				val, err := prog(t, row)
				if err != nil {
					return nil, err
				}
				if err := col.Append(val); err != nil {
					return nil, err
				}
			}
			return colVec(col), nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unknown node %T", e)
}

// combineValidity intersects two validity bitmaps into a per-row bitmap
// for n rows, or nil when neither operand can be NULL.
func combineValidity(l, r *vec, n int) []bool {
	if l.valid == nil && r.valid == nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = !l.null(i) && !r.null(i)
	}
	return out
}

func binVec(op value.BinOp, l, r *vec, n int) (*vec, error) {
	switch {
	case op.Logical():
		return logicalVec(op, l, r, n), nil
	case op.Comparison():
		return compareVec(op, l, r, n), nil
	}
	return arithVec(op, l, r, n)
}

// logicalVec computes && / || with NULL-is-false semantics; the result is
// always a valid bool, matching value.Apply.
func logicalVec(op value.BinOp, l, r *vec, n int) *vec {
	out := make([]bool, n)
	if l.kind == value.KindBool && r.kind == value.KindBool &&
		l.allValid() && r.allValid() && l.stride == 1 && r.stride == 1 {
		lb, rb := l.bools, r.bools
		if op == value.OpAnd {
			for i := 0; i < n; i++ {
				out[i] = lb[i] && rb[i]
			}
		} else {
			for i := 0; i < n; i++ {
				out[i] = lb[i] || rb[i]
			}
		}
		return &vec{kind: value.KindBool, bools: out, stride: 1, n: n}
	}
	if op == value.OpAnd {
		for i := 0; i < n; i++ {
			out[i] = l.truthyAt(i) && r.truthyAt(i)
		}
	} else {
		for i := 0; i < n; i++ {
			out[i] = l.truthyAt(i) || r.truthyAt(i)
		}
	}
	return &vec{kind: value.KindBool, bools: out, stride: 1, n: n}
}

// cmpHolds translates a three-way comparison into the operator's verdict.
func cmpHolds(op value.BinOp, c int) bool {
	switch op {
	case value.OpEq:
		return c == 0
	case value.OpNe:
		return c != 0
	case value.OpLt:
		return c < 0
	case value.OpLe:
		return c <= 0
	case value.OpGt:
		return c > 0
	}
	return c >= 0
}

// cmpLoop runs one comparison over null-free same-type operands.
func cmpLoop[T int64 | float64 | string](op value.BinOp, a []T, as int, b []T, bs int, out []bool) {
	n := len(out)
	switch op {
	case value.OpEq:
		for i := 0; i < n; i++ {
			out[i] = a[i*as] == b[i*bs]
		}
	case value.OpNe:
		for i := 0; i < n; i++ {
			out[i] = a[i*as] != b[i*bs]
		}
	case value.OpLt:
		for i := 0; i < n; i++ {
			out[i] = a[i*as] < b[i*bs]
		}
	case value.OpLe:
		for i := 0; i < n; i++ {
			out[i] = a[i*as] <= b[i*bs]
		}
	case value.OpGt:
		for i := 0; i < n; i++ {
			out[i] = a[i*as] > b[i*bs]
		}
	case value.OpGe:
		for i := 0; i < n; i++ {
			out[i] = a[i*as] >= b[i*bs]
		}
	}
}

// compareVec evaluates a comparison under the total order. Same-kind
// null-free operands run type-specialized tight loops; everything else
// (NULLs, cross-rank operands, bools, NaN-bearing floats) goes through
// per-row three-way comparison consistent with value.Compare.
func compareVec(op value.BinOp, l, r *vec, n int) *vec {
	out := make([]bool, n)
	res := &vec{kind: value.KindBool, bools: out, stride: 1, n: n}
	bothValid := l.allValid() && r.allValid()

	switch {
	case bothValid && l.kind == value.KindInt64 && r.kind == value.KindInt64:
		// int64 operands compare exactly — no float64 round trip, so
		// values beyond 2^53 keep full precision.
		cmpLoop(op, l.ints, l.stride, r.ints, r.stride, out)
		return res
	case bothValid && l.kind == value.KindString && r.kind == value.KindString:
		cmpLoop(op, l.strs, l.stride, r.strs, r.stride, out)
		return res
	case bothValid && l.kind.Numeric() && r.kind.Numeric():
		// Mixed numeric kinds compare as float64, like value.Compare;
		// NaN needs the total order (NaN first, NaN == NaN).
		lf, ls := asFloats(l, n)
		rf, rs := asFloats(r, n)
		if !hasNaN(lf) && !hasNaN(rf) {
			cmpLoop(op, lf, ls, rf, rs, out)
			return res
		}
		for i := 0; i < n; i++ {
			out[i] = cmpHolds(op, cmpFloatTotal(lf[i*ls], rf[i*rs]))
		}
		return res
	}

	// Generic path: honours NULL ordering and cross-rank comparison.
	for i := 0; i < n; i++ {
		out[i] = cmpHolds(op, value.Compare(l.valueAt(i), r.valueAt(i)))
	}
	return res
}

// CompareHolds reports whether `a op b` holds under value.Compare's
// total order: the scalar form of the comparison kernels.
func CompareHolds(op value.BinOp, a, b value.Value) bool {
	return cmpHolds(op, value.Compare(a, b))
}

// AndCompare ANDs `col[r] op val` into acc (len(acc) == col.Len()):
// acc[r] is cleared wherever the comparison does not hold, and rows
// already false stay false. It computes exactly what compareVec does for
// a column against a broadcast constant, under value.Compare's total
// order. Same-kind int64, float64 and string columns run typed loops
// (int64 exact, no float64 round trip); mixed int/float pairs compare as
// float64 with NaN first; NULL rows take the verdict of NULL against
// val. Every other pairing (bools, cross-rank kinds, a NULL constant)
// falls back to boxed value.Compare per row.
func AndCompare(op value.BinOp, col *table.Column, val value.Value, acc []bool) {
	ck, vk := col.Kind(), val.Kind()
	typed := (ck == vk && (ck == value.KindInt64 || ck == value.KindString)) ||
		(ck.Numeric() && vk.Numeric())
	if !typed {
		for r := range acc {
			if acc[r] && !CompareHolds(op, col.Value(r), val) {
				acc[r] = false
			}
		}
		return
	}

	// The typed loops read NULL rows' zero payload; remember which live
	// NULL rows the NULL verdict keeps, and patch them in afterwards.
	valid := col.Validity()
	var keepNull []int
	if valid != nil && CompareHolds(op, value.Null, val) {
		for r, ok := range valid[:len(acc)] {
			if !ok && acc[r] {
				keepNull = append(keepNull, r)
			}
		}
	}
	switch {
	case ck == value.KindInt64 && vk == value.KindInt64:
		andCmpLoop(op, col.Ints(), val.Int(), acc)
	case ck == value.KindString:
		andCmpLoop(op, col.Strs(), val.Str(), acc)
	case ck == value.KindFloat64:
		c, _ := val.AsFloat()
		f := col.Floats()[:len(acc)]
		if math.IsNaN(c) || hasNaN(f) {
			for r, x := range f {
				acc[r] = acc[r] && cmpHolds(op, cmpFloatTotal(x, c))
			}
		} else {
			andCmpLoop(op, f, c, acc)
		}
	default: // int64 column, float64 constant
		c := val.Float()
		for r, x := range col.Ints()[:len(acc)] {
			acc[r] = acc[r] && cmpHolds(op, cmpFloatTotal(float64(x), c))
		}
	}
	if valid != nil {
		for r, ok := range valid[:len(acc)] {
			if !ok {
				acc[r] = false
			}
		}
		for _, r := range keepNull {
			acc[r] = true
		}
	}
}

// andCmpLoop ANDs `a[i] op c` into acc over null-free same-type operands
// (NaN-free for floats, so each operator's negation is exact). It stores
// only where the comparison fails, which on clustered data keeps the
// branch predictable and the untouched part of acc unwritten.
func andCmpLoop[T int64 | float64 | string](op value.BinOp, a []T, c T, acc []bool) {
	a = a[:len(acc)]
	switch op {
	case value.OpEq:
		for i, x := range a {
			if x != c {
				acc[i] = false
			}
		}
	case value.OpNe:
		for i, x := range a {
			if x == c {
				acc[i] = false
			}
		}
	case value.OpLt:
		for i, x := range a {
			if x >= c {
				acc[i] = false
			}
		}
	case value.OpLe:
		for i, x := range a {
			if x > c {
				acc[i] = false
			}
		}
	case value.OpGt:
		for i, x := range a {
			if x <= c {
				acc[i] = false
			}
		}
	case value.OpGe:
		for i, x := range a {
			if x < c {
				acc[i] = false
			}
		}
	}
}

// cmpFloatTotal is value.Compare's float leg: NaN sorts first and equals
// itself.
func cmpFloatTotal(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func hasNaN(f []float64) bool {
	for _, x := range f {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// asFloats views a numeric vector as float64s, converting int64 payloads.
func asFloats(v *vec, n int) ([]float64, int) {
	if v.kind == value.KindFloat64 {
		return v.floats, v.stride
	}
	if v.stride == 0 {
		return []float64{float64(v.ints[0])}, 0
	}
	out := make([]float64, n)
	for i, x := range v.ints[:n] {
		out[i] = float64(x)
	}
	return out, 1
}

// arithVec evaluates +,-,*,/,% with NULL propagation. Result kind follows
// value.Apply: all-int64 stays int64 (division/modulus by zero is NULL),
// any float64 operand promotes to float64, string+string concatenates.
func arithVec(op value.BinOp, l, r *vec, n int) (*vec, error) {
	valid := combineValidity(l, r, n)

	if l.kind == value.KindString && r.kind == value.KindString && op == value.OpAdd {
		out := make([]string, n)
		ls, rs := l.strs, r.strs
		a, b := l.stride, r.stride
		if valid == nil {
			for i := 0; i < n; i++ {
				out[i] = ls[i*a] + rs[i*b]
			}
		} else {
			for i := 0; i < n; i++ {
				if valid[i] {
					out[i] = ls[i*a] + rs[i*b]
				}
			}
		}
		return &vec{kind: value.KindString, strs: out, valid: valid, stride: 1, n: n}, nil
	}
	if !l.kind.Numeric() || !r.kind.Numeric() {
		return nil, fmt.Errorf("expr: %v requires numeric operands, got %v and %v", op, l.kind, r.kind)
	}

	if l.kind == value.KindInt64 && r.kind == value.KindInt64 {
		out := make([]int64, n)
		a, b := l.stride, r.stride
		li, ri := l.ints, r.ints
		switch op {
		case value.OpAdd:
			for i := 0; i < n; i++ {
				out[i] = li[i*a] + ri[i*b]
			}
		case value.OpSub:
			for i := 0; i < n; i++ {
				out[i] = li[i*a] - ri[i*b]
			}
		case value.OpMul:
			for i := 0; i < n; i++ {
				out[i] = li[i*a] * ri[i*b]
			}
		case value.OpDiv, value.OpMod:
			// Zero divisors yield NULL rather than faulting.
			for i := 0; i < n; i++ {
				d := ri[i*b]
				if d == 0 {
					if valid == nil {
						valid = newAllValid(n)
					}
					valid[i] = false
					continue
				}
				if valid != nil && !valid[i] {
					continue
				}
				if op == value.OpDiv {
					out[i] = li[i*a] / d
				} else {
					out[i] = li[i*a] % d
				}
			}
		default:
			return nil, fmt.Errorf("expr: unknown operator %v", op)
		}
		return &vec{kind: value.KindInt64, ints: out, valid: valid, stride: 1, n: n}, nil
	}

	lf, a := asFloats(l, n)
	rf, b := asFloats(r, n)
	out := make([]float64, n)
	switch op {
	case value.OpAdd:
		for i := 0; i < n; i++ {
			out[i] = lf[i*a] + rf[i*b]
		}
	case value.OpSub:
		for i := 0; i < n; i++ {
			out[i] = lf[i*a] - rf[i*b]
		}
	case value.OpMul:
		for i := 0; i < n; i++ {
			out[i] = lf[i*a] * rf[i*b]
		}
	case value.OpDiv:
		for i := 0; i < n; i++ {
			out[i] = lf[i*a] / rf[i*b]
		}
	case value.OpMod:
		for i := 0; i < n; i++ {
			out[i] = math.Mod(lf[i*a], rf[i*b])
		}
	default:
		return nil, fmt.Errorf("expr: unknown operator %v", op)
	}
	return &vec{kind: value.KindFloat64, floats: out, valid: valid, stride: 1, n: n}, nil
}

func newAllValid(n int) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = true
	}
	return v
}

// unVec evaluates unary operators, mirroring value.ApplyUnary.
func unVec(op value.UnOp, x *vec, n int) (*vec, error) {
	switch op {
	case value.OpNeg:
		switch x.kind {
		case value.KindInt64:
			out := make([]int64, n)
			s := x.stride
			for i := 0; i < n; i++ {
				out[i] = -x.ints[i*s]
			}
			return &vec{kind: value.KindInt64, ints: out, valid: spreadValidity(x, n), stride: 1, n: n}, nil
		case value.KindFloat64:
			out := make([]float64, n)
			s := x.stride
			for i := 0; i < n; i++ {
				out[i] = -x.floats[i*s]
			}
			return &vec{kind: value.KindFloat64, floats: out, valid: spreadValidity(x, n), stride: 1, n: n}, nil
		}
		return nil, fmt.Errorf("expr: - on %v", x.kind)
	case value.OpNot:
		// !NULL is true (NULL counts as false), so the result is always
		// a valid bool.
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = !x.truthyAt(i)
		}
		return &vec{kind: value.KindBool, bools: out, stride: 1, n: n}, nil
	case value.OpIsNull, value.OpIsNotNull:
		want := op == value.OpIsNull
		out := make([]bool, n)
		if x.valid != nil {
			for i := 0; i < n; i++ {
				out[i] = x.null(i) == want
			}
		} else if !want {
			for i := range out {
				out[i] = true
			}
		}
		return &vec{kind: value.KindBool, bools: out, stride: 1, n: n}, nil
	}
	return nil, fmt.Errorf("expr: unknown unary operator %v", op)
}

// spreadValidity materializes x's validity as a stride-1 bitmap (nil when
// all valid), so a derived vector can own it.
func spreadValidity(x *vec, n int) []bool {
	if x.valid == nil {
		return nil
	}
	if x.stride == 1 {
		return x.valid
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = x.valid[0]
	}
	return out
}
