package wire

import (
	"fmt"

	"nexus/internal/core"
	"nexus/internal/value"
)

// PutPlan encodes an algebra plan as an expression tree: operator kind,
// parameters, then children recursively. Decoding rebuilds the plan
// through the core constructors, so every plan that crosses the wire is
// re-validated (schema inference re-runs) on the receiving server.
func PutPlan(e *Encoder, n core.Node) {
	e.U8(uint8(n.Kind()))
	switch x := n.(type) {
	case *core.Scan:
		e.Str(x.Dataset)
		PutSchema(e, x.Schema())
	case *core.Literal:
		PutTable(e, x.Table)
	case *core.Var:
		e.Str(x.Name)
		PutSchema(e, x.Schema())
	case *core.Filter:
		PutExpr(e, x.Pred)
	case *core.Project:
		putStrs(e, x.Cols)
	case *core.Rename:
		putStrs(e, x.From)
		putStrs(e, x.To)
	case *core.Extend:
		e.U32(uint32(len(x.Defs)))
		for _, d := range x.Defs {
			e.Str(d.Name)
			PutExpr(e, d.E)
		}
	case *core.Join:
		e.U8(uint8(x.Type))
		putStrs(e, x.LeftKeys)
		putStrs(e, x.RightKeys)
		PutExpr(e, x.Residual)
	case *core.Product:
	case *core.GroupAgg:
		putStrs(e, x.Keys)
		putAggs(e, x.Aggs)
	case *core.Distinct:
	case *core.Sort:
		e.U32(uint32(len(x.Specs)))
		for _, s := range x.Specs {
			e.Str(s.Col)
			e.Bool(s.Desc)
		}
	case *core.Limit:
		e.I64(x.N)
		e.I64(x.Offset)
	case *core.Union:
		e.Bool(x.All)
	case *core.Except, *core.Intersect, *core.DropDims:
	case *core.AsArray:
		putStrs(e, x.Dims)
	case *core.SliceDim:
		e.Str(x.Dim)
		e.I64(x.At)
	case *core.Dice:
		e.U32(uint32(len(x.Bounds)))
		for _, b := range x.Bounds {
			e.Str(b.Dim)
			e.I64(b.Lo)
			e.I64(b.Hi)
		}
	case *core.Transpose:
		putStrs(e, x.Perm)
	case *core.Window:
		e.U32(uint32(len(x.Extents)))
		for _, ext := range x.Extents {
			e.Str(ext.Dim)
			e.I64(ext.Before)
			e.I64(ext.After)
		}
		e.U8(uint8(x.Agg))
		e.Str(x.Arg)
		e.Str(x.As)
	case *core.ReduceDims:
		putStrs(e, x.Over)
		putAggs(e, x.Aggs)
	case *core.Fill:
		PutValue(e, x.Default)
	case *core.Shift:
		e.Str(x.Dim)
		e.I64(x.Offset)
	case *core.MatMul:
		e.Str(x.As)
	case *core.ElemWise:
		e.U8(uint8(x.Op))
		e.Str(x.As)
	case *core.Iterate:
		e.Str(x.LoopVar)
		e.I64(int64(x.MaxIters))
		if x.Conv == nil {
			e.Bool(false)
		} else {
			e.Bool(true)
			e.U8(uint8(x.Conv.Metric))
			e.Str(x.Conv.Col)
			e.F64(x.Conv.Tol)
		}
	case *core.Let:
		e.Str(x.Name)
	}
	for _, c := range n.Children() {
		PutPlan(e, c)
	}
}

// GetPlan decodes an algebra plan, re-running schema inference through
// the core constructors. Plans and their expressions nested past
// MaxDecodeDepth fail with ErrTooDeep.
func GetPlan(d *Decoder) (core.Node, error) {
	n := getPlan(d)
	if d.err != nil {
		return nil, d.err
	}
	return n, nil
}

func getPlan(d *Decoder) core.Node {
	if !d.enter() {
		return nil
	}
	defer d.leave()
	kind := core.OpKind(d.U8())
	if d.err != nil {
		return nil
	}
	check := func(n core.Node, err error) core.Node {
		if err != nil && d.err == nil {
			d.err = fmt.Errorf("wire: rebuild %v: %w", kind, err)
		}
		return n
	}
	child := func() core.Node {
		c := getPlan(d)
		if c == nil && d.err == nil {
			d.err = fmt.Errorf("wire: %v missing child", kind)
		}
		return c
	}
	switch kind {
	case core.KScan:
		name := d.Str()
		sch := GetSchema(d)
		if d.err != nil {
			return nil
		}
		return check(core.NewScan(name, sch))
	case core.KLiteral:
		t := GetTable(d)
		if d.err != nil {
			return nil
		}
		return check(core.NewLiteral(t))
	case core.KVar:
		name := d.Str()
		sch := GetSchema(d)
		if d.err != nil {
			return nil
		}
		return check(core.NewVar(name, sch))
	case core.KFilter:
		pred := GetExpr(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewFilter(c, pred))
	case core.KProject:
		cols := getStrs(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewProject(c, cols))
	case core.KRename:
		from := getStrs(d)
		to := getStrs(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewRename(c, from, to))
	case core.KExtend:
		n := int(d.U32())
		if d.err != nil || n > d.Remaining() {
			d.fail("extend defs")
			return nil
		}
		defs := make([]core.ColDef, 0, n)
		for i := 0; i < n; i++ {
			name := d.Str()
			ex := GetExpr(d)
			defs = append(defs, core.ColDef{Name: name, E: ex})
		}
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewExtend(c, defs))
	case core.KJoin:
		typ := core.JoinType(d.U8())
		lk := getStrs(d)
		rk := getStrs(d)
		res := GetExpr(d)
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewJoin(l, r, typ, lk, rk, res))
	case core.KProduct:
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewProduct(l, r))
	case core.KGroupAgg:
		keys := getStrs(d)
		aggs := getAggs(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewGroupAgg(c, keys, aggs))
	case core.KDistinct:
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewDistinct(c))
	case core.KSort:
		n := int(d.U32())
		if d.err != nil || n > d.Remaining() {
			d.fail("sort specs")
			return nil
		}
		specs := make([]core.SortSpec, 0, n)
		for i := 0; i < n; i++ {
			specs = append(specs, core.SortSpec{Col: d.Str(), Desc: d.Bool()})
		}
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewSort(c, specs))
	case core.KLimit:
		n := d.I64()
		off := d.I64()
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewLimit(c, n, off))
	case core.KUnion:
		all := d.Bool()
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewUnion(l, r, all))
	case core.KExcept:
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewExcept(l, r))
	case core.KIntersect:
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewIntersect(l, r))
	case core.KAsArray:
		dims := getStrs(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewAsArray(c, dims))
	case core.KDropDims:
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewDropDims(c))
	case core.KSlice:
		dim := d.Str()
		at := d.I64()
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewSliceDim(c, dim, at))
	case core.KDice:
		n := int(d.U32())
		if d.err != nil || n > d.Remaining() {
			d.fail("dice bounds")
			return nil
		}
		bounds := make([]core.DimBound, 0, n)
		for i := 0; i < n; i++ {
			bounds = append(bounds, core.DimBound{Dim: d.Str(), Lo: d.I64(), Hi: d.I64()})
		}
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewDice(c, bounds))
	case core.KTranspose:
		perm := getStrs(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewTranspose(c, perm))
	case core.KWindow:
		n := int(d.U32())
		if d.err != nil || n > d.Remaining() {
			d.fail("window extents")
			return nil
		}
		exts := make([]core.DimExtent, 0, n)
		for i := 0; i < n; i++ {
			exts = append(exts, core.DimExtent{Dim: d.Str(), Before: d.I64(), After: d.I64()})
		}
		agg := core.AggFunc(d.U8())
		arg := d.Str()
		as := d.Str()
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewWindow(c, exts, agg, arg, as))
	case core.KReduceDims:
		over := getStrs(d)
		aggs := getAggs(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewReduceDims(c, over, aggs))
	case core.KFill:
		def := GetValue(d)
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewFill(c, def))
	case core.KShift:
		dim := d.Str()
		off := d.I64()
		c := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewShift(c, dim, off))
	case core.KMatMul:
		as := d.Str()
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewMatMul(l, r, as))
	case core.KElemWise:
		op := value.BinOp(d.U8())
		as := d.Str()
		l := child()
		r := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewElemWise(l, r, op, as))
	case core.KIterate:
		loopVar := d.Str()
		maxIters := int(d.I64())
		var conv *core.Convergence
		if d.Bool() {
			conv = &core.Convergence{
				Metric: core.MetricKind(d.U8()),
				Col:    d.Str(),
				Tol:    d.F64(),
			}
		}
		init := child()
		body := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewIterate(init, body, loopVar, maxIters, conv))
	case core.KLet:
		name := d.Str()
		bound := child()
		in := child()
		if d.err != nil {
			return nil
		}
		return check(core.NewLet(name, bound, in))
	}
	d.err = fmt.Errorf("wire: bad plan operator tag %d", kind)
	return nil
}

// EncodePlan returns the byte encoding of a plan.
func EncodePlan(n core.Node) []byte {
	var e Encoder
	PutPlan(&e, n)
	return e.Bytes()
}

// DecodePlan parses a plan encoding.
func DecodePlan(b []byte) (core.Node, error) {
	d := NewDecoder(b)
	n, err := GetPlan(d)
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after plan", d.Remaining())
	}
	return n, nil
}

func putStrs(e *Encoder, ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

func getStrs(d *Decoder) []string {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining() {
		d.fail("string list")
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Str())
	}
	return out
}

func putAggs(e *Encoder, aggs []core.AggSpec) {
	e.U32(uint32(len(aggs)))
	for _, a := range aggs {
		e.U8(uint8(a.Func))
		e.Str(a.As)
		PutExpr(e, a.Arg)
	}
}

func getAggs(d *Decoder) []core.AggSpec {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining() {
		d.fail("agg specs")
		return nil
	}
	out := make([]core.AggSpec, 0, n)
	for i := 0; i < n; i++ {
		fn := core.AggFunc(d.U8())
		as := d.Str()
		arg := GetExpr(d)
		out = append(out, core.AggSpec{Func: fn, As: as, Arg: arg})
	}
	return out
}
