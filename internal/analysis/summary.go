package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under hiplint: a module-local
// call graph plus one Summary per declared function, computed bottom-up
// over strongly connected components. A summary records what a function
// does with its parameters (logs them, compares them in variable time),
// what its results carry (key material, taint derived from arguments),
// and which locks it transitively acquires. The secflow and lockorder
// analyzers are built on these summaries.
//
// Everything here is may-analysis over the AST (stdlib go/ast+go/types
// only, no SSA): facts only accumulate, so the SCC fixpoint terminates,
// and a fact like ParamLogged means "there is a path that logs", not
// "every path does". The checks built on top are written so this
// direction of approximation produces missed findings under adversarial
// code, never noise on straightforward code.

// ParamFacts is a bitset of things a function may do with one parameter
// (the receiver counts as parameter 0 of a method).
type ParamFacts uint16

const (
	// ParamLogged: the parameter's value flows into fmt/log formatting
	// or an error string.
	ParamLogged ParamFacts = 1 << iota
	// ParamVarCompared: compared with bytes.Equal, reflect.DeepEqual or
	// ==/!= rather than a constant-time primitive.
	ParamVarCompared
)

// Reach records one transitive fact with the call chain that produces
// it, for diagnostics like "helper → Type.put → pkg.Type.mu.Lock".
type Reach struct {
	What string   // terminal culprit ("pkg.Type.mu.Lock", ...)
	Via  []string // callee names from this function down to the culprit
}

func (r *Reach) chain() string {
	if r == nil {
		return ""
	}
	if len(r.Via) == 0 {
		return r.What
	}
	return strings.Join(r.Via, " → ") + " → " + r.What
}

// through extends a callee's reach with one more hop for the caller's
// summary. Chains are capped so mutual recursion cannot grow them
// unboundedly (the fact itself stays; only the narration truncates).
func through(callee string, r *Reach) *Reach {
	if r == nil {
		return nil
	}
	via := append([]string{callee}, r.Via...)
	if len(via) > 6 {
		via = via[:6]
	}
	return &Reach{What: r.What, Via: via}
}

// Summary is the interprocedural abstract of one declared function.
type Summary struct {
	Fn     *types.Func
	Params []ParamFacts // receiver first for methods, then parameters

	// ReturnsSecret: some result carries key material from a secret
	// source (keymat output, ECDH shared secret, puzzle solution).
	ReturnsSecret bool
	// TaintsReturn: some result is derived from the parameters, so a
	// secret argument makes the result secret.
	TaintsReturn bool

	// Acquires maps lock class → how this function (transitively) takes
	// it. Lock classes are type-qualified ("tlslite.ServerSessions.mu")
	// or package-qualified for globals; function-local mutexes have no
	// class and do not appear.
	Acquires map[string]*Reach
}

func (s *Summary) paramFacts(i int) ParamFacts {
	if s == nil || i < 0 || i >= len(s.Params) {
		return 0
	}
	return s.Params[i]
}

// funcInfo ties a declared module function to its AST and package.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// Program aggregates every package of one hiplint run plus the
// interprocedural facts computed over them.
type Program struct {
	Pkgs []*Package

	fns        map[*types.Func]*funcInfo
	order      []*types.Func // deterministic iteration order (position)
	summaries  map[*types.Func]*Summary
	ifaceCache map[*types.Func][]*types.Func
	methods    []*types.Func // concrete module methods, for interface resolution

	// lockorder's program-wide lock graph, built lazily on first use.
	lockGraph *lockGraph
	// secflow's program-wide secret field classes, built lazily.
	secretClasses map[string]bool
	// hotpath's transitive hot set, built lazily on first use.
	hotSet map[*types.Func]*HotInfo
}

// NewProgram builds the call graph over pkgs and computes summaries
// bottom-up over SCCs.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:       pkgs,
		fns:        make(map[*types.Func]*funcInfo),
		summaries:  make(map[*types.Func]*Summary),
		ifaceCache: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.fns[fn] = &funcInfo{fn: fn, decl: fd, pkg: pkg}
				p.order = append(p.order, fn)
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					p.methods = append(p.methods, fn)
				}
			}
		}
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i].Pos() < p.order[j].Pos() })
	p.computeSummaries()
	return p
}

// SummaryOf returns fn's summary, or nil for functions outside the
// loaded module packages (stdlib, bodyless declarations).
func (p *Program) SummaryOf(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return p.summaries[fn]
}

// FuncByName resolves "Name" or "Recv.Name" within the program, for the
// engine's own tests.
func (p *Program) FuncByName(name string) *types.Func {
	for _, fn := range p.order {
		n := fn.Name()
		if r := recvTypeName(fn); r != "" {
			n = r + "." + n
		}
		if n == name {
			return fn
		}
	}
	return nil
}

// pkgNameOf returns the package name declaring fn when fn is a module
// function known to the program, else "".
func (p *Program) pkgNameOf(fn *types.Func) string {
	if fi, ok := p.fns[fn]; ok {
		return fi.pkg.Name
	}
	return ""
}

// resolveCall returns the module functions a call may target: the static
// callee when declared in the program, or every module method that
// implements an interface method being invoked. Dynamic calls through
// func values resolve to nothing.
func (p *Program) resolveCall(info *types.Info, call *ast.CallExpr) []*types.Func {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	if _, ok := p.fns[fn]; ok {
		return []*types.Func{fn}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	// Only resolve through module-declared interfaces. Stdlib interfaces
	// (io.Writer, hash.Hash, fmt.Stringer) have so many module
	// implementors that resolving them wires call edges between
	// subsystems that never actually touch — every hash.Write would
	// "reach" the TCP stack's Conn.Write.
	if !strings.HasPrefix(pkgPathOf(fn), "hipcloud") {
		return nil
	}
	if cands, ok := p.ifaceCache[fn]; ok {
		return cands
	}
	var cands []*types.Func
	for _, m := range p.methods {
		if m.Name() != fn.Name() {
			continue
		}
		msig, ok := m.Type().(*types.Signature)
		if !ok || msig.Recv() == nil {
			continue
		}
		rt := msig.Recv().Type()
		if types.Implements(rt, iface) {
			cands = append(cands, m)
			continue
		}
		if _, isPtr := rt.(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(rt), iface) {
				cands = append(cands, m)
			}
		}
	}
	p.ifaceCache[fn] = cands
	return cands
}

// --- SCC ordering (Tarjan) -------------------------------------------

func (p *Program) callees(fi *funcInfo) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, c := range p.resolveCall(fi.pkg.Info, call) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// sccs returns the strongly connected components of the call graph in
// bottom-up order (every component after the components it calls into).
func (p *Program) sccs() [][]*types.Func {
	index := make(map[*types.Func]int)
	low := make(map[*types.Func]int)
	onStack := make(map[*types.Func]bool)
	var stack []*types.Func
	var comps [][]*types.Func
	next := 0

	adj := make(map[*types.Func][]*types.Func, len(p.order))
	for _, fn := range p.order {
		adj[fn] = p.callees(p.fns[fn])
	}

	// Iterative Tarjan: the module graph is shallow, but recursion depth
	// should not depend on analyzed code shape.
	type frame struct {
		fn *types.Func
		i  int
	}
	var strongconnect func(root *types.Func)
	strongconnect = func(root *types.Func) {
		frames := []frame{{fn: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.i < len(adj[f.fn]) {
				w := adj[f.fn][f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{fn: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[f.fn] {
						low[f.fn] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			if low[f.fn] == index[f.fn] {
				var comp []*types.Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.fn {
						break
					}
				}
				comps = append(comps, comp)
			}
			done := f.fn
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done] < low[parent.fn] {
					low[parent.fn] = low[done]
				}
			}
		}
	}
	for _, fn := range p.order {
		if _, seen := index[fn]; !seen {
			strongconnect(fn)
		}
	}
	return comps
}

func (p *Program) computeSummaries() {
	for _, comp := range p.sccs() {
		// Within an SCC, iterate to fixpoint: facts are monotone bitsets
		// and pointers that only go nil→set, so this terminates.
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				ns := p.summarize(p.fns[fn])
				if !summaryEqual(p.summaries[fn], ns) {
					p.summaries[fn] = ns
					changed = true
				}
			}
		}
	}
}

func summaryEqual(a, b *Summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	if a.ReturnsSecret != b.ReturnsSecret || a.TaintsReturn != b.TaintsReturn {
		return false
	}
	if len(a.Acquires) != len(b.Acquires) {
		return false
	}
	for k := range a.Acquires {
		if _, ok := b.Acquires[k]; !ok {
			return false
		}
	}
	return true
}

// --- secret sources ---------------------------------------------------

// isSecretSource reports whether call's results are key material at the
// source: keymat stream draws and derivations, ECDH shared-secret
// computation, and puzzle solutions. Keyed by package name so fixtures
// re-declaring the names exercise the same predicate.
func isSecretSource(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Name() {
	case "keymat":
		switch fn.Name() {
		case "Draw", "DeriveAssociation", "DeriveESPRekey":
			return "keymat." + fn.Name(), true
		}
	case "ecdh":
		if fn.Name() == "ECDH" || (fn.Name() == "Bytes" && recvTypeName(fn) == "PrivateKey") {
			return "ecdh." + fn.Name(), true
		}
	case "puzzle":
		if fn.Name() == "Solve" {
			return "puzzle.Solve", true
		}
	}
	return "", false
}

// secretFieldNames are struct fields that hold private-key material by
// convention; reading one inside a crypto package is a secret source.
var secretFieldNames = map[string]bool{
	"priv": true, "privKey": true, "privateKey": true, "dhPriv": true,
}

// isLogSink reports whether a call to fn emits its arguments into
// human-readable output or an error string. fmt's Sprint family builds
// strings without emitting — those are taint propagators instead.
func isLogSink(fn *types.Func) bool {
	switch pkgPathOf(fn) {
	case "fmt":
		n := fn.Name()
		return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint") || n == "Errorf"
	case "log":
		return true
	case "errors":
		return fn.Name() == "New"
	}
	return false
}

// taintPropagators are stdlib calls whose result textually encodes their
// input (so a secret stays secret through them).
func isTaintPropagator(fn *types.Func) bool {
	switch pkgPathOf(fn) {
	case "encoding/hex", "encoding/base64":
		return true
	case "bytes":
		return fn.Name() == "Clone" || fn.Name() == "Join"
	case "strings":
		return fn.Name() == "Join"
	case "fmt":
		return strings.HasPrefix(fn.Name(), "Sprint") || strings.HasPrefix(fn.Name(), "Append")
	}
	return false
}

// taintCarrier reports whether a value of type t can physically carry
// key bytes: byte slices/arrays (and aggregates holding them), strings,
// and pointers to such. Errors, ints, bools and handle types cannot —
// without this gate, `x, err := deriveKeys(...)` would taint err, and
// every later `log.Fatalf(err)` in the program would light up.
func taintCarrier(t types.Type) bool {
	if t == nil {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return taintCarrier(p.Elem())
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsString != 0
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return true // maps can hold byte values; keep chains through them
	}
	return containsByteData(t)
}

// --- per-function summarization ---------------------------------------

// sumWalker computes one function's summary. It tracks taint
// (information flow; copies count): which parameters' bytes a local value
// may encode, plus whether it carries source material. Taint drives
// Logged/VarCompared and the return facts.
type sumWalker struct {
	prog   *Program
	fi     *funcInfo
	info   *types.Info
	params []*types.Var
	pidx   map[types.Object]int

	taint  map[types.Object]uint64 // local → param mask (info flow)
	secret map[types.Object]bool   // local → carries source material

	out *Summary
}

func (p *Program) summarize(fi *funcInfo) *Summary {
	w := &sumWalker{
		prog:   p,
		fi:     fi,
		info:   fi.pkg.Info,
		pidx:   make(map[types.Object]int),
		taint:  make(map[types.Object]uint64),
		secret: make(map[types.Object]bool),
	}
	sig := fi.fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		w.params = append(w.params, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.params = append(w.params, sig.Params().At(i))
	}
	w.out = &Summary{Fn: fi.fn, Params: make([]ParamFacts, len(w.params)), Acquires: map[string]*Reach{}}
	for i, pv := range w.params {
		if i < 64 {
			w.pidx[pv] = i
			w.taint[pv] = 1 << uint(i)
		}
	}
	// Iterate the body until the local taint map stabilizes, so flows
	// through locals defined later in source converge.
	for pass := 0; pass < 8; pass++ {
		before := len(w.taint) + countSecrets(w.secret)
		grown := w.pass()
		after := len(w.taint) + countSecrets(w.secret)
		if !grown && before == after {
			break
		}
	}
	return w.out
}

func countSecrets(m map[types.Object]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// markParams ORs facts into every parameter in mask.
func (w *sumWalker) markParams(mask uint64, f ParamFacts) {
	for i := range w.out.Params {
		if mask&(1<<uint(i)) != 0 {
			w.out.Params[i] |= f
		}
	}
}

// evalTaint returns (param mask, secret) for e under information flow.
func (w *sumWalker) evalTaint(e ast.Expr) (uint64, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.info.Uses[x]
		if obj == nil {
			obj = w.info.Defs[x]
		}
		if obj == nil {
			return 0, false
		}
		return w.taint[obj], w.secret[obj]
	case *ast.SelectorExpr:
		if secretFieldNames[x.Sel.Name] && cryptoPkgs[w.fi.pkg.Name] {
			m, _ := w.evalTaint(x.X)
			return m, true
		}
		return w.evalTaint(x.X)
	case *ast.ParenExpr:
		return w.evalTaint(x.X)
	case *ast.SliceExpr:
		return w.evalTaint(x.X)
	case *ast.IndexExpr:
		return w.evalTaint(x.X)
	case *ast.StarExpr:
		return w.evalTaint(x.X)
	case *ast.UnaryExpr:
		return w.evalTaint(x.X)
	case *ast.BinaryExpr:
		m1, s1 := w.evalTaint(x.X)
		m2, s2 := w.evalTaint(x.Y)
		return m1 | m2, s1 || s2
	case *ast.CompositeLit:
		var m uint64
		s := false
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			em, es := w.evalTaint(el)
			m |= em
			s = s || es
		}
		return m, s
	case *ast.CallExpr:
		return w.evalCallTaint(x)
	case *ast.TypeAssertExpr:
		return w.evalTaint(x.X)
	}
	return 0, false
}

func (w *sumWalker) evalCallTaint(call *ast.CallExpr) (uint64, bool) {
	// Conversions carry their operand.
	if tv, ok := w.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.evalTaint(call.Args[0])
	}
	if isBuiltinCall(w.info, call, "append") {
		var m uint64
		s := false
		for _, a := range call.Args {
			am, as := w.evalTaint(a)
			m |= am
			s = s || as
		}
		return m, s
	}
	if isBuiltinCall(w.info, call, "len") || isBuiltinCall(w.info, call, "cap") {
		return 0, false
	}
	if _, ok := isSecretSource(w.info, call); ok {
		return 0, true
	}
	fn := calleeFunc(w.info, call)
	if fn != nil && isTaintPropagator(fn) {
		var m uint64
		s := false
		for _, a := range call.Args {
			am, as := w.evalTaint(a)
			m |= am
			s = s || as
		}
		return m, s
	}
	// Module callees: combine per their summaries.
	var m uint64
	s := false
	for _, cand := range w.prog.resolveCall(w.info, call) {
		sum := w.prog.summaries[cand]
		if sum == nil {
			continue
		}
		if sum.ReturnsSecret {
			s = true
		}
		if sum.TaintsReturn {
			am, as := w.callArgsTaint(call, cand)
			m |= am
			s = s || as
		}
	}
	return m, s
}

// callArgsTaint unions taint across every argument (receiver included).
func (w *sumWalker) callArgsTaint(call *ast.CallExpr, callee *types.Func) (uint64, bool) {
	var m uint64
	s := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			rm, rs := w.evalTaint(sel.X)
			m |= rm
			s = s || rs
		}
	}
	for _, a := range call.Args {
		am, as := w.evalTaint(a)
		m |= am
		s = s || as
	}
	return m, s
}

// pass walks the whole body once, growing the maps and the summary.
// It reports whether any summary bit changed.
func (w *sumWalker) pass() bool {
	beforeParams := append([]ParamFacts(nil), w.out.Params...)
	before := *w.out

	ast.Inspect(w.fi.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			w.assign(x)
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				m, s := w.evalTaint(r)
				if s {
					w.out.ReturnsSecret = true
				}
				if m != 0 {
					w.out.TaintsReturn = true
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				if comparableSecretType(w.info, x.X) || comparableSecretType(w.info, x.Y) {
					mx, _ := w.evalTaint(x.X)
					my, _ := w.evalTaint(x.Y)
					w.markParams(mx|my, ParamVarCompared)
				}
			}
		case *ast.CallExpr:
			w.call(x)
		}
		return true
	})

	if len(beforeParams) != len(w.out.Params) {
		return true
	}
	for i := range beforeParams {
		if beforeParams[i] != w.out.Params[i] {
			return true
		}
	}
	return before.ReturnsSecret != w.out.ReturnsSecret ||
		before.TaintsReturn != w.out.TaintsReturn
}

// assign merges RHS taint into LHS locals.
func (w *sumWalker) assign(as *ast.AssignStmt) {
	// Tuple assignment from one call: every LHS gets the call's facts.
	rhsFor := func(i int) ast.Expr {
		if len(as.Rhs) == len(as.Lhs) {
			return as.Rhs[i]
		}
		if len(as.Rhs) == 1 {
			return as.Rhs[0]
		}
		return nil
	}
	for i, lhs := range as.Lhs {
		rhs := rhsFor(i)
		if rhs == nil {
			continue
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.info.Defs[id]
		if obj == nil {
			obj = w.info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if _, isParam := w.pidx[obj]; !isParam && isLocalObj(obj, w.fi) && taintCarrier(obj.Type()) {
			m, s := w.evalTaint(rhs)
			w.taint[obj] |= m
			if s {
				w.secret[obj] = true
			}
		}
	}
}

func isLocalObj(obj types.Object, fi *funcInfo) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() >= fi.decl.Pos() && v.Pos() <= fi.decl.End()
}

// call processes one call expression for effects and reach facts.
func (w *sumWalker) call(call *ast.CallExpr) {
	info := w.info
	fn := calleeFunc(info, call)

	// Lock acquisition (for the transitive Acquires set).
	if chain, acquire, ok := mutexOp(info, call); ok && acquire {
		if class := lockClass(info, call, chain); class != "" {
			if _, seen := w.out.Acquires[class]; !seen {
				w.out.Acquires[class] = &Reach{What: class + ".Lock"}
			}
		}
		return
	}
	// Log sinks.
	if fn != nil && isLogSink(fn) {
		for _, a := range call.Args {
			m, _ := w.evalTaint(a)
			w.markParams(m, ParamLogged)
		}
		return
	}
	// Variable-time comparison sinks.
	if fn != nil && ((fn.Name() == "Equal" && pkgPathOf(fn) == "bytes") ||
		(fn.Name() == "DeepEqual" && pkgPathOf(fn) == "reflect")) {
		for _, a := range call.Args {
			m, _ := w.evalTaint(a)
			w.markParams(m, ParamVarCompared)
		}
		return
	}
	// Module callees: propagate their summaries. Per-param and lock
	// facts use may-semantics (any candidate), so taint flows through
	// interface methods.
	for _, cand := range w.prog.resolveCall(info, call) {
		sum := w.prog.summaries[cand]
		if sum == nil {
			continue
		}
		name := cand.Name()
		if r := recvTypeName(cand); r != "" {
			name = r + "." + name
		}
		for class, r := range sum.Acquires {
			if _, seen := w.out.Acquires[class]; !seen {
				w.out.Acquires[class] = through(name, r)
			}
		}
		// Per-argument effects.
		args := callArgsWithRecv(call, cand)
		for pi, arg := range args {
			if arg == nil {
				continue
			}
			facts := sum.paramFacts(pi)
			if facts == 0 {
				continue
			}
			tm, _ := w.evalTaint(arg)
			if facts&ParamLogged != 0 {
				w.markParams(tm, ParamLogged)
			}
			if facts&ParamVarCompared != 0 {
				w.markParams(tm, ParamVarCompared)
			}
		}
	}
}

// callArgsWithRecv aligns call arguments with callee parameter indices:
// slot 0 is the receiver expression for methods, then the arguments.
// Slots beyond the argument list (variadic underflow) are nil.
func callArgsWithRecv(call *ast.CallExpr, callee *types.Func) []ast.Expr {
	var out []ast.Expr
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	for _, a := range call.Args {
		out = append(out, a)
	}
	return out
}

// lockClass names a mutex for cross-function ordering: receiver-typed
// fields become "pkg.Type.field...", package-level mutexes become
// "pkg.var...". Function-local mutexes return "" (no cross-function
// ordering is possible through them).
func lockClass(info *types.Info, call *ast.CallExpr, chain string) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	_, base := rootChain(info, sel.X)
	v, ok := base.(*types.Var)
	if !ok || v.Pkg() == nil {
		return ""
	}
	rest := chain
	if i := strings.IndexByte(chain, '.'); i >= 0 {
		rest = chain[i+1:]
	} else {
		rest = ""
	}
	// Package-level mutex (or a struct var holding one).
	if v.Parent() == v.Pkg().Scope() {
		if rest == "" {
			return v.Pkg().Name() + "." + v.Name()
		}
		return v.Pkg().Name() + "." + v.Name() + "." + rest
	}
	// Receiver or parameter of a named type: qualify by the type.
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && rest != "" {
		return v.Pkg().Name() + "." + n.Obj().Name() + "." + rest
	}
	return ""
}
