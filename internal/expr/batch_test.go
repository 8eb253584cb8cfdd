package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Differential tests: the vectorized batch evaluator must agree with the
// row-at-a-time oracle on every row, for every expression shape, NULL
// pattern and value range — including int64 values past 2^53, where a
// float64 round trip would silently lose precision.

func diffSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "i", Kind: value.KindInt64},
		schema.Attribute{Name: "j", Kind: value.KindInt64},
		schema.Attribute{Name: "f", Kind: value.KindFloat64},
		schema.Attribute{Name: "g", Kind: value.KindFloat64},
		schema.Attribute{Name: "s", Kind: value.KindString},
		schema.Attribute{Name: "t", Kind: value.KindString},
		schema.Attribute{Name: "p", Kind: value.KindBool},
		schema.Attribute{Name: "q", Kind: value.KindBool},
	)
}

// diffTable builds n rows of random data with NULLs sprinkled into every
// column and int64 values drawn from the full 64-bit range.
func diffTable(r *rand.Rand, n int) *table.Table {
	sch := diffSchema()
	b := table.NewBuilder(sch, n)
	edgeInts := []int64{
		0, 1, -1, 1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1),
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1,
	}
	edgeFloats := []float64{0, -0.5, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	strs := []string{"", "a", "ab", "b", "zz", "\x00x"}
	randInt := func() value.Value {
		if r.Intn(5) == 0 {
			return value.NewInt(edgeInts[r.Intn(len(edgeInts))])
		}
		return value.NewInt(int64(r.Intn(201) - 100))
	}
	randFloat := func() value.Value {
		if r.Intn(6) == 0 {
			return value.NewFloat(edgeFloats[r.Intn(len(edgeFloats))])
		}
		return value.NewFloat(r.NormFloat64() * 10)
	}
	maybeNull := func(v value.Value) value.Value {
		if r.Intn(5) == 0 {
			return value.Null
		}
		return v
	}
	for row := 0; row < n; row++ {
		b.MustAppend(
			maybeNull(randInt()),
			maybeNull(randInt()),
			maybeNull(randFloat()),
			maybeNull(randFloat()),
			maybeNull(value.NewString(strs[r.Intn(len(strs))])),
			maybeNull(value.NewString(strs[r.Intn(len(strs))])),
			maybeNull(value.NewBool(r.Intn(2) == 0)),
			maybeNull(value.NewBool(r.Intn(2) == 0)),
		)
	}
	return b.Build()
}

// genExpr builds a random well-typed expression of the wanted kind.
func genExpr(r *rand.Rand, depth int, want value.Kind) Expr {
	leaf := depth <= 0
	switch want {
	case value.KindInt64:
		if leaf || r.Intn(3) == 0 {
			switch r.Intn(4) {
			case 0:
				return Column("i")
			case 1:
				return Column("j")
			case 2:
				return CInt([]int64{0, 1, -3, 7, 1<<53 + 1, math.MaxInt64}[r.Intn(6)])
			default:
				return C(value.Null)
			}
		}
		switch r.Intn(6) {
		case 0:
			return Neg(genExpr(r, depth-1, value.KindInt64))
		case 1:
			return NewCall("abs", genExpr(r, depth-1, value.KindInt64))
		default:
			ops := []value.BinOp{value.OpAdd, value.OpSub, value.OpMul, value.OpDiv, value.OpMod}
			return NewBin(ops[r.Intn(len(ops))], genExpr(r, depth-1, value.KindInt64), genExpr(r, depth-1, value.KindInt64))
		}
	case value.KindFloat64:
		if leaf || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return Column("f")
			case 1:
				return Column("g")
			default:
				return CFloat([]float64{0, 0.5, -2.25, 1e300}[r.Intn(4)])
			}
		}
		if r.Intn(6) == 0 {
			return NewCall("sqrt", genExpr(r, depth-1, value.KindFloat64))
		}
		ops := []value.BinOp{value.OpAdd, value.OpSub, value.OpMul, value.OpDiv, value.OpMod}
		// Mixed int/float operands exercise promotion.
		argKind := value.KindFloat64
		if r.Intn(3) == 0 {
			argKind = value.KindInt64
		}
		return NewBin(ops[r.Intn(len(ops))], genExpr(r, depth-1, value.KindFloat64), genExpr(r, depth-1, argKind))
	case value.KindString:
		if leaf || r.Intn(2) == 0 {
			switch r.Intn(3) {
			case 0:
				return Column("s")
			case 1:
				return Column("t")
			default:
				return CStr([]string{"", "a", "zz"}[r.Intn(3)])
			}
		}
		if r.Intn(4) == 0 {
			return NewCall("upper", genExpr(r, depth-1, value.KindString))
		}
		return Add(genExpr(r, depth-1, value.KindString), genExpr(r, depth-1, value.KindString))
	default: // bool
		if leaf {
			switch r.Intn(3) {
			case 0:
				return Column("p")
			case 1:
				return Column("q")
			default:
				return CBool(r.Intn(2) == 0)
			}
		}
		switch r.Intn(7) {
		case 0:
			return Not(genExpr(r, depth-1, value.KindBool))
		case 1:
			kinds := []value.Kind{value.KindInt64, value.KindFloat64, value.KindString, value.KindBool}
			return IsNull(genExpr(r, depth-1, kinds[r.Intn(len(kinds))]))
		case 2:
			return And(genExpr(r, depth-1, value.KindBool), genExpr(r, depth-1, value.KindBool))
		case 3:
			return Or(genExpr(r, depth-1, value.KindBool), genExpr(r, depth-1, value.KindBool))
		default:
			// Comparison over same- or cross-kind operands (total order).
			ops := []value.BinOp{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
			op := ops[r.Intn(len(ops))]
			kinds := []value.Kind{value.KindInt64, value.KindFloat64, value.KindString, value.KindBool}
			lk := kinds[r.Intn(len(kinds))]
			rk := lk
			if r.Intn(4) == 0 {
				rk = kinds[r.Intn(len(kinds))] // cross-rank comparison
			}
			return NewBin(op, genExpr(r, depth-1, lk), genExpr(r, depth-1, rk))
		}
	}
}

// assertBatchMatchesOracle compiles e and checks EvalBatch against the
// per-row oracle on tab.
func assertBatchMatchesOracle(t *testing.T, e Expr, tab *table.Table) {
	t.Helper()
	c, err := Compile(e, tab.Schema())
	if err != nil {
		t.Fatalf("%s: compile: %v", e, err)
	}
	batch, err := c.EvalBatch(tab)
	if err != nil {
		t.Fatalf("%s: batch: %v", e, err)
	}
	if batch.Len() != tab.NumRows() {
		t.Fatalf("%s: batch length %d, want %d", e, batch.Len(), tab.NumRows())
	}
	for row := 0; row < tab.NumRows(); row++ {
		single, err := c.Eval(tab, row)
		if err != nil {
			t.Fatalf("%s row %d: oracle: %v", e, row, err)
		}
		if !value.Equal(single, batch.Value(row)) {
			t.Fatalf("%s row %d: oracle %v, batch %v", e, row, single, batch.Value(row))
		}
	}
}

func TestBatchDifferentialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tables := []*table.Table{
		diffTable(r, 257),
		diffTable(r, 1),
		table.Empty(diffSchema()), // empty input must produce empty output
	}
	kinds := []value.Kind{value.KindBool, value.KindInt64, value.KindFloat64, value.KindString}
	for trial := 0; trial < 400; trial++ {
		e := genExpr(r, 1+r.Intn(3), kinds[trial%len(kinds)])
		for _, tab := range tables {
			assertBatchMatchesOracle(t, e, tab)
		}
	}
}

// TestBatchFixedExpressions pins the shapes the kernels special-case:
// NULL literals, logical ops over NULLs, zero divisors, string concat and
// comparison, unary ops, cross-kind comparisons and Call fallbacks.
func TestBatchFixedExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tab := diffTable(r, 128)
	exprs := []Expr{
		Add(Column("i"), Column("j")),
		Mul(Column("i"), CInt(3)),
		Div(Column("i"), Column("j")),             // int division, NULL on zero
		NewBin(value.OpMod, Column("i"), CInt(0)), // mod by zero is NULL
		Div(Column("f"), CFloat(0)),               // float division by zero is Inf
		Add(Column("f"), Column("i")),             // promotion
		Add(Column("s"), Column("t")),             // concat
		Eq(Column("i"), Column("j")),
		Lt(Column("s"), Column("t")),
		Ge(Column("f"), Column("i")),
		Eq(Column("p"), Column("q")),     // bool comparison
		Lt(Column("i"), Column("s")),     // cross-rank: numbers before strings
		Eq(C(value.Null), C(value.Null)), // NULL == NULL under the total order
		Lt(C(value.Null), Column("i")),   // NULL sorts first
		And(Column("p"), Column("q")),
		Or(Column("p"), Not(Column("q"))),
		And(Column("p"), C(value.Null)), // NULL is false in logic
		Not(C(value.Null)),
		Neg(Column("i")),
		Neg(Column("f")),
		IsNull(Column("f")),
		&Un{Op: value.OpIsNotNull, X: Column("s")},
		NewCall("abs", Column("i")),
		NewCall("if", Column("p"), CStr("yes"), CStr("no")),
		NewCall("coalesce", Column("f"), CFloat(0)),
		And(Gt(Add(Column("i"), Column("j")), CInt(0)), Lt(Column("f"), Column("g"))),
		Mul(Add(Column("f"), CFloat(1)), NewCall("sqrt", NewCall("abs", Column("g")))),
	}
	for _, e := range exprs {
		assertBatchMatchesOracle(t, e, tab)
	}
}

// TestBatchInt64Precision is the regression test for the old vectorized
// fast path, which compared int64 operands through float64: values above
// 2^53 that differ by 1 collapse to the same float64.
func TestBatchInt64Precision(t *testing.T) {
	sch := schema.New(
		schema.Attribute{Name: "x", Kind: value.KindInt64},
		schema.Attribute{Name: "y", Kind: value.KindInt64},
	)
	const big = int64(1) << 53
	b := table.NewBuilder(sch, 3)
	b.MustAppend(value.NewInt(big), value.NewInt(big+1))
	b.MustAppend(value.NewInt(math.MaxInt64), value.NewInt(math.MaxInt64-1))
	b.MustAppend(value.NewInt(big), value.NewInt(big))
	tab := b.Build()

	cases := []struct {
		e    Expr
		want []bool
	}{
		{Eq(Column("x"), Column("y")), []bool{false, false, true}},
		{Lt(Column("x"), Column("y")), []bool{true, false, false}},
		{Gt(Column("x"), Column("y")), []bool{false, true, false}},
		{Ne(Column("x"), CInt(big+1)), []bool{true, true, true}},
	}
	for _, c := range cases {
		compiled := MustCompile(c.e, sch)
		batch, err := compiled.EvalBatch(tab)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		for row, want := range c.want {
			if got := batch.Value(row); got.Bool() != want {
				t.Errorf("%s row %d: got %v, want %v", c.e, row, got, want)
			}
		}
		assertBatchMatchesOracle(t, c.e, tab)
	}
}

// TestAppendSelected checks the selection-vector path against a row-eval
// filter.
func TestAppendSelected(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tables := []*table.Table{diffTable(r, 300), table.Empty(diffSchema())}
	for trial := 0; trial < 100; trial++ {
		e := genExpr(r, 1+r.Intn(3), value.KindBool)
		c, err := Compile(e, diffSchema())
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for _, tab := range tables {
			sel, err := c.AppendSelected(nil, tab)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			var want []int
			for row := 0; row < tab.NumRows(); row++ {
				v, err := c.Eval(tab, row)
				if err != nil {
					t.Fatalf("%s row %d: %v", e, row, err)
				}
				if v.Truthy() {
					want = append(want, row)
				}
			}
			if fmt.Sprint(sel) != fmt.Sprint(want) {
				t.Fatalf("%s: selection %v, oracle %v", e, sel, want)
			}
		}
	}
}

// TestBatchConstantPredicate covers the broadcast (stride-0) result path.
func TestBatchConstantPredicate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tab := diffTable(r, 10)
	for _, e := range []Expr{CBool(true), CBool(false), C(value.Null), Gt(CInt(2), CInt(1))} {
		if k, _ := InferKind(e, tab.Schema()); k == value.KindBool || k == value.KindNull {
			c := MustCompile(e, tab.Schema())
			sel, err := c.AppendSelected(nil, tab)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for row := 0; row < tab.NumRows(); row++ {
				v, _ := c.Eval(tab, row)
				if v.Truthy() {
					want = append(want, row)
				}
			}
			if fmt.Sprint(sel) != fmt.Sprint(want) {
				t.Fatalf("%s: selection %v, oracle %v", e, sel, want)
			}
		}
		assertBatchMatchesOracle(t, e, tab)
	}
}

// Edge values for the comparison kernels: int64 around ±2^53 and the
// extremes, floats with NaN, ±Inf and -0.0, strings with the empty one.
var (
	edgeInts = []int64{0, 1, -1, 42, 1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 - 1, -1 << 53,
		math.MaxInt64, math.MinInt64}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1.5, -2.25, 42, math.Inf(1), math.Inf(-1),
		math.NaN(), 1 << 53, 1<<53 + 2}
	edgeStrs = []string{"", "a", "ab", "b", "zzz"}
)

// edgeColumn draws n rows of kind from the edge values. With nulls, about
// one row in five is NULL and keeps a non-zero payload, so a kernel that
// reads a NULL row's payload instead of its validity shows.
func edgeColumn(r *rand.Rand, kind value.Kind, n int, nulls bool) *table.Column {
	var col *table.Column
	switch kind {
	case value.KindInt64:
		v := make([]int64, n)
		for i := range v {
			v[i] = edgeInts[r.Intn(len(edgeInts))]
		}
		col = table.IntColumn(v)
	case value.KindFloat64:
		v := make([]float64, n)
		for i := range v {
			v[i] = edgeFloats[r.Intn(len(edgeFloats))]
		}
		col = table.FloatColumn(v)
	case value.KindString:
		v := make([]string, n)
		for i := range v {
			v[i] = edgeStrs[r.Intn(len(edgeStrs))]
		}
		col = table.StringColumn(v)
	default:
		v := make([]bool, n)
		for i := range v {
			v[i] = r.Intn(2) == 0
		}
		col = table.BoolColumn(v)
	}
	if !nulls {
		return col
	}
	valid := make([]bool, n)
	for i := range valid {
		valid[i] = r.Intn(5) != 0
	}
	return col.WithValidity(valid)
}

// edgeConsts is every edge value boxed, plus NULL and a bool, so each
// column kind meets same-kind, mixed-numeric and cross-rank constants.
func edgeConsts() []value.Value {
	out := []value.Value{value.Null, value.NewBool(true)}
	for _, x := range edgeInts {
		out = append(out, value.NewInt(x))
	}
	for _, x := range edgeFloats {
		out = append(out, value.NewFloat(x))
	}
	for _, s := range edgeStrs {
		out = append(out, value.NewString(s))
	}
	return out
}

// TestAndCompareMatchesCompareVec: the masked comparison kernel the
// storage layer filters plain pages with agrees, row for row, with
// pre-mask AND compareVec over the same column and constant.
func TestAndCompareMatchesCompareVec(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := []value.BinOp{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	kinds := []value.Kind{value.KindInt64, value.KindFloat64, value.KindString, value.KindBool}
	for _, kind := range kinds {
		for _, nulls := range []bool{false, true} {
			for _, n := range []int{0, 1, 7, 4100} {
				col := edgeColumn(r, kind, n, nulls)
				for _, val := range edgeConsts() {
					for _, op := range ops {
						pre := make([]bool, n)
						for i := range pre {
							pre[i] = r.Intn(4) != 0
						}
						got := append([]bool(nil), pre...)
						AndCompare(op, col, val, got)
						want := compareVec(op, colVec(col), constVec(val), n)
						for i := range got {
							if got[i] != (pre[i] && want.bools[i]) {
								t.Fatalf("%v nulls=%v n=%d: row %d (%v %v %v) = %v, want %v && %v",
									kind, nulls, n, i, col.Value(i), op, val, got[i], pre[i], want.bools[i])
							}
						}
					}
				}
			}
		}
	}
}
