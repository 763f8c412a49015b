package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufOwn enforces the netsim.GetBuf/PutBuf single-owner contract from
// DESIGN.md §5a with an intra-procedural, flow-approximate walk:
//
//   - double-Put: a buffer released twice on one path corrupts an
//     unrelated packet later (the pool hands the same array to two
//     owners);
//   - Put after escape: releasing a buffer that was stored into a field,
//     map, slice, channel or closure, where another reference may still
//     be live;
//   - Put of a non-pool slice: recycling a make/literal allocation;
//   - Put of an offset sub-slice (PutBuf(b[2:])): the pool would recycle
//     a base pointer shifted into another allocation;
//   - leak: a GetBuf result that is neither released nor handed off
//     (returned, stored, or passed on) on any path.
//
// Branches merge released-sets by intersection (a buffer counts as
// released only when every surviving path released it), loop bodies are
// analyzed once against their entry state, and reassignment of a tracked
// variable resets its state — deliberately conservative so the check
// stays quiet on correct code.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc:  "GetBuf/PutBuf pairing: double-Put, Put of escaped or non-pool buffers, leaked Gets",
	Run:  runBufOwn,
}

// isPoolGet reports whether call obtains a pooled buffer: netsim.GetBuf.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && strings.HasPrefix(pkgPathOf(fn), "hipcloud/") && fn.Name() == "GetBuf"
}

// isPoolPut reports whether call releases a pooled buffer (netsim.PutBuf),
// returning the released argument.
func isPoolPut(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || !strings.HasPrefix(pkgPathOf(fn), "hipcloud/") || len(call.Args) != 1 || fn.Name() != "PutBuf" {
		return nil, false
	}
	return call.Args[0], true
}

// isPoolGetProg extends isPoolGet through the call graph: a module
// function whose summary says it returns a fresh pool buffer (a GetBuf
// wrapper) counts as a Get.
func isPoolGetProg(prog *Program, info *types.Info, call *ast.CallExpr) bool {
	if isPoolGet(info, call) {
		return true
	}
	for _, cand := range prog.resolveCall(info, call) {
		if s := prog.SummaryOf(cand); s != nil && s.ReturnsPoolBuf {
			return true
		}
	}
	return false
}

// isPoolPutProg extends isPoolPut through the call graph: passing a
// buffer to a module function whose summary releases that parameter to
// the pool (a PutBuf wrapper) is a Put of that argument.
func isPoolPutProg(prog *Program, info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	if arg, ok := isPoolPut(info, call); ok {
		return arg, ok
	}
	for _, cand := range prog.resolveCall(info, call) {
		sum := prog.SummaryOf(cand)
		if sum == nil {
			continue
		}
		for pi, arg := range callArgsWithRecv(call, cand) {
			if arg != nil && sum.paramFacts(pi)&ParamPutPool != 0 {
				return arg, true
			}
		}
	}
	return nil, false
}

// classifyOriginProg extends classifyOrigin through the call graph so a
// buffer obtained from a GetBuf wrapper is tracked like a direct Get.
func classifyOriginProg(prog *Program, info *types.Info, e ast.Expr) bufOrigin {
	if org := classifyOrigin(info, e); org != originNone {
		return org
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		if x.Low == nil || isZeroConst(info, x.Low) {
			return classifyOriginProg(prog, info, x.X)
		}
	case *ast.CallExpr:
		if !isPoolGet(info, x) && isPoolGetProg(prog, info, x) {
			return originPool
		}
	}
	return originNone
}

// bufOrigin classifies the RHS a tracked variable was assigned from.
type bufOrigin int

const (
	originNone    bufOrigin = iota
	originPool              // netsim.GetBuf / pool.Get
	originNonPool           // make([]byte, ...) or a []byte literal
)

// classifyOrigin unwraps zero-offset re-slicing (GetBuf(n)[:0]) and
// reports where a buffer expression came from.
func classifyOrigin(info *types.Info, e ast.Expr) bufOrigin {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return classifyOrigin(info, x.X)
	case *ast.SliceExpr:
		if x.Low == nil || isZeroConst(info, x.Low) {
			return classifyOrigin(info, x.X)
		}
		return originNone
	case *ast.CallExpr:
		if isPoolGet(info, x) {
			return originPool
		}
		if isBuiltinCall(info, x, "make") && len(x.Args) > 0 {
			if tv, ok := info.Types[x.Args[0]]; ok && tv.IsType() && isByteSliceType(tv.Type) {
				return originNonPool
			}
		}
		return originNone
	case *ast.CompositeLit:
		if tv, ok := info.Types[x]; ok && isByteSliceType(tv.Type) {
			return originNonPool
		}
	}
	return originNone
}

func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

func runBufOwn(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeBufBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				analyzeBufBody(pass, fn.Body)
			}
			return true
		})
	}
	// Offset sub-slice Puts are reported anywhere, tracked or not.
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := isPoolPutProg(pass.Prog, info, call)
			if !ok {
				return true
			}
			if se, ok := ast.Unparen(arg).(*ast.SliceExpr); ok && se.Low != nil && !isZeroConst(info, se.Low) {
				pass.Reportf(call.Pos(), "PutBuf of offset sub-slice: the pool would recycle a base pointer shifted into another allocation")
			}
			return true
		})
	}
}

// bufState is the per-path must-analysis state.
type bufState struct {
	released map[types.Object]token.Pos // definitely released on this path
	escaped  map[types.Object]bool      // may have been stored elsewhere
}

func newBufState() *bufState {
	return &bufState{released: map[types.Object]token.Pos{}, escaped: map[types.Object]bool{}}
}

func (s *bufState) clone() *bufState {
	c := newBufState()
	for k, v := range s.released {
		c.released[k] = v
	}
	for k, v := range s.escaped {
		c.escaped[k] = v
	}
	return c
}

// merge intersects released-sets (must-released on all surviving paths)
// and unions escaped-sets (may-escaped on any path).
func (s *bufState) merge(o *bufState) {
	for k := range s.released {
		if _, ok := o.released[k]; !ok {
			delete(s.released, k)
		}
	}
	for k := range o.escaped {
		s.escaped[k] = true
	}
}

// bufFn analyzes one function body.
type bufFn struct {
	pass    *Pass
	info    *types.Info
	origin  map[types.Object]bufOrigin // tracked locals
	getPos  map[types.Object]token.Pos // where the Get happened
	handoff map[types.Object]bool      // released, returned, stored or passed on somewhere
}

func analyzeBufBody(pass *Pass, body *ast.BlockStmt) {
	bf := &bufFn{
		pass:    pass,
		info:    pass.Pkg.Info,
		origin:  map[types.Object]bufOrigin{},
		getPos:  map[types.Object]token.Pos{},
		handoff: map[types.Object]bool{},
	}
	bf.collect(body)
	if len(bf.origin) == 0 {
		return
	}
	bf.walkBlock(body, newBufState())
	for obj, org := range bf.origin {
		if org == originPool && !bf.handoff[obj] {
			pass.Reportf(bf.getPos[obj], "buffer %s from GetBuf is neither released with PutBuf nor handed off on any path; it leaks every time", obj.Name())
		}
	}
}

// collect finds tracked variables and their handoff uses in a pre-pass
// over the body (skipping nested function literals, which are analyzed
// as their own scopes; outer variables they capture count as handoffs).
func (bf *bufFn) collect(body *ast.BlockStmt) {
	// Pass 1: find locals assigned from a pool Get or a make/literal.
	inspectSkipFuncLit(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := bf.info.Defs[id]
			if obj == nil {
				obj = bf.info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if org := classifyOriginProg(bf.pass.Prog, bf.info, as.Rhs[i]); org != originNone {
				if _, seen := bf.origin[obj]; !seen {
					bf.origin[obj] = org
					bf.getPos[obj] = as.Rhs[i].Pos()
				}
			}
		}
	})
	if len(bf.origin) == 0 {
		return
	}
	// Pass 2: find handoffs — any use that can transfer ownership.
	inspectSkipFuncLit(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			if arg, isPut := isPoolPutProg(bf.pass.Prog, bf.info, x); isPut {
				if obj := bf.trackedIdent(arg); obj != nil {
					bf.handoff[obj] = true
				}
				return
			}
			// Builtin calls (len, cap, copy, append) do not take
			// ownership; any other call does, conservatively.
			if calleeFunc(bf.info, x) == nil && !isDynamicCall(bf.info, x) {
				return
			}
			for _, a := range x.Args {
				if obj := bf.trackedIdent(a); obj != nil {
					bf.handoff[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if obj := bf.trackedIdent(r); obj != nil {
					bf.handoff[obj] = true
				}
			}
		case *ast.AssignStmt:
			// b used on the RHS of an assignment to something else.
			for _, r := range x.Rhs {
				if obj := bf.trackedIdent(r); obj != nil {
					bf.handoff[obj] = true
				}
			}
		case *ast.SendStmt:
			if obj := bf.trackedIdent(x.Value); obj != nil {
				bf.handoff[obj] = true
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if obj := bf.trackedIdent(e); obj != nil {
					bf.handoff[obj] = true
				}
			}
		case *ast.FuncLit:
			// Captures: any tracked ident used inside counts as a handoff.
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := bf.info.Uses[id]; obj != nil {
						if _, tracked := bf.origin[obj]; tracked {
							bf.handoff[obj] = true
						}
					}
				}
				return true
			})
		}
	})
}

// trackedIdent resolves e (through zero-offset re-slicing) to a tracked
// variable's object, or nil.
func (bf *bufFn) trackedIdent(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := bf.info.Uses[x]
		if obj == nil {
			return nil
		}
		if _, ok := bf.origin[obj]; ok {
			return obj
		}
	case *ast.SliceExpr:
		return bf.trackedIdent(x.X)
	}
	return nil
}

// inspectSkipFuncLit walks n in source order, not descending into
// function literals.
func inspectSkipFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		fn(m)
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	})
}

// walkBlock runs the must-analysis over a statement list. It returns
// true when the path terminates (return/branch) before the list ends.
func (bf *bufFn) walkBlock(b *ast.BlockStmt, st *bufState) bool {
	for _, s := range b.List {
		if bf.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (bf *bufFn) walkStmt(s ast.Stmt, st *bufState) bool {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return bf.walkBlock(x, st)
	case *ast.IfStmt:
		if x.Init != nil {
			bf.walkStmt(x.Init, st)
		}
		bf.scanExpr(x.Cond, st)
		thenSt := st.clone()
		thenTerm := bf.walkBlock(x.Body, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if x.Else != nil {
			elseTerm = bf.walkStmt(x.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm && x.Else != nil:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			thenSt.merge(elseSt)
			*st = *thenSt
		}
		return false
	case *ast.ForStmt:
		if x.Init != nil {
			bf.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			bf.scanExpr(x.Cond, st)
		}
		// Loop bodies run zero or more times: analyze against the entry
		// state for reporting, discard released-set changes, keep
		// escapes (union over iterations is still an escape).
		loopSt := st.clone()
		bf.walkBlock(x.Body, loopSt)
		for k := range loopSt.escaped {
			st.escaped[k] = true
		}
		return false
	case *ast.RangeStmt:
		bf.scanExpr(x.X, st)
		loopSt := st.clone()
		bf.walkBlock(x.Body, loopSt)
		for k := range loopSt.escaped {
			st.escaped[k] = true
		}
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return bf.walkCases(s, st)
	case *ast.LabeledStmt:
		return bf.walkStmt(x.Stmt, st)
	case *ast.ReturnStmt:
		bf.scanStmtExprs(s, st)
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path.
		return true
	default:
		bf.scanStmtExprs(s, st)
		return false
	}
}

// walkCases handles switch/type-switch/select: each case runs against a
// clone of the entry state; the merged state intersects released-sets
// across the surviving cases plus, when there is no default, the
// fall-past-every-case path.
func (bf *bufFn) walkCases(s ast.Stmt, st *bufState) bool {
	var tag ast.Node
	var body *ast.BlockStmt
	hasDefault := false
	switch x := s.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			bf.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			bf.scanExpr(x.Tag, st)
		}
		body = x.Body
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			bf.walkStmt(x.Init, st)
		}
		tag = x.Assign
		body = x.Body
	case *ast.SelectStmt:
		body = x.Body
	}
	if tag != nil {
		// Scan the type-switch assign for events (x := y.(type) reads y).
		if as, ok := tag.(ast.Stmt); ok {
			bf.scanStmtExprs(as, st)
		}
	}
	var survivors []*bufState
	allTerm := true
	for _, c := range body.List {
		caseSt := st.clone()
		term := false
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				bf.scanExpr(e, caseSt)
			}
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				bf.walkStmt(cc.Comm, caseSt)
			} else {
				hasDefault = true
			}
			stmts = cc.Body
		}
		for _, cs := range stmts {
			if bf.walkStmt(cs, caseSt) {
				term = true
				break
			}
		}
		if !term {
			survivors = append(survivors, caseSt)
			allTerm = false
		}
	}
	if !hasDefault {
		survivors = append(survivors, st.clone())
		allTerm = false
	}
	if allTerm && len(body.List) > 0 {
		return true
	}
	if len(survivors) > 0 {
		merged := survivors[0]
		for _, o := range survivors[1:] {
			merged.merge(o)
		}
		*st = *merged
	}
	return false
}

// scanStmtExprs scans a simple statement's expression tree for events in
// source order.
func (bf *bufFn) scanStmtExprs(s ast.Stmt, st *bufState) {
	// Assignments are the store/reset points: a tracked buffer bound to
	// a second name (or appended into a container) gains a second live
	// reference; a tracked name re-bound to something else becomes a
	// fresh buffer.
	if as, ok := s.(*ast.AssignStmt); ok {
		for _, r := range as.Rhs {
			bf.scanExpr(r, st)
		}
		for i, lhs := range as.Lhs {
			var lhsObj types.Object
			if id, isIdent := lhs.(*ast.Ident); isIdent {
				lhsObj = bf.info.Defs[id]
				if lhsObj == nil {
					lhsObj = bf.info.Uses[id]
				}
			}
			if i < len(as.Rhs) {
				for _, t := range bf.escapeTargets(as.Rhs[i]) {
					// b = b[:n] / b = append(b, ...) rebinds the same
					// backing array to the same name: no second owner.
					if t != lhsObj {
						st.escaped[t] = true
					}
				}
			}
			if lhsObj != nil && i < len(as.Rhs) {
				if _, tracked := bf.origin[lhsObj]; tracked {
					if bf.trackedIdent(as.Rhs[i]) != lhsObj {
						delete(st.released, lhsObj)
						delete(st.escaped, lhsObj)
					}
				}
			}
		}
		return
	}
	inspectSkipFuncLit(s, func(n ast.Node) { bf.visitEvent(n, st) })
}

func (bf *bufFn) scanExpr(e ast.Expr, st *bufState) {
	inspectSkipFuncLit(e, func(n ast.Node) { bf.visitEvent(n, st) })
}

// escapeTargets returns the tracked variables that gain an extra live
// reference when e is bound to a name or stored into an lvalue. Plain
// call arguments are ownership loans (the append APIs hand buffers to
// callees all the time) and do NOT escape; aliasing binds do:
// direct use, re-slicing, builtin append (both the re-sliced first
// argument and reference-typed appended elements), composite literals
// and address-of.
func (bf *bufFn) escapeTargets(e ast.Expr) []types.Object {
	var out []types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := bf.trackedIdent(x); obj != nil {
			out = append(out, obj)
		}
	case *ast.SliceExpr:
		out = append(out, bf.escapeTargets(x.X)...)
	case *ast.UnaryExpr:
		out = append(out, bf.escapeTargets(x.X)...)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = append(out, bf.escapeTargets(el)...)
		}
	case *ast.CallExpr:
		if isBuiltinCall(bf.info, x, "append") {
			for i, a := range x.Args {
				if i > 0 && x.Ellipsis.IsValid() && i == len(x.Args)-1 {
					continue // append(dst, b...) copies bytes, no new reference
				}
				out = append(out, bf.escapeTargets(a)...)
			}
		}
	}
	return out
}

// visitEvent handles one node during a scan: Put calls, sends and
// composite-literal stores.
func (bf *bufFn) visitEvent(n ast.Node, st *bufState) {
	switch x := n.(type) {
	case *ast.CallExpr:
		arg, isPut := isPoolPutProg(bf.pass.Prog, bf.info, x)
		if !isPut {
			return
		}
		obj := bf.trackedIdent(arg)
		if obj == nil {
			return
		}
		if prev, ok := st.released[obj]; ok {
			pos := bf.pass.Pkg.Fset.Position(prev)
			bf.pass.Reportf(x.Pos(), "second PutBuf of %s on this path (already released at line %d); double-Put corrupts unrelated packets", obj.Name(), pos.Line)
			return
		}
		if st.escaped[obj] {
			bf.pass.Reportf(x.Pos(), "PutBuf of %s after it was stored elsewhere; another reference may still be live", obj.Name())
		}
		if bf.origin[obj] == originNonPool {
			bf.pass.Reportf(x.Pos(), "PutBuf of %s, which was allocated with make or a literal, not GetBuf", obj.Name())
		}
		st.released[obj] = x.Pos()
	case *ast.SendStmt:
		if obj := bf.trackedIdent(x.Value); obj != nil {
			st.escaped[obj] = true
		}
	case *ast.CompositeLit:
		for _, e := range x.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if obj := bf.trackedIdent(e); obj != nil {
				st.escaped[obj] = true
			}
		}
	}
}
