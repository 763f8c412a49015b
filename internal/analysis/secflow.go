package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// SecFlow is the semantic secret-hygiene analyzer: it tracks key
// material from its sources — keymat stream draws and derivations, ECDH
// shared secrets, puzzle solutions, private-key fields, and []byte
// parameters whose name says they carry keys — through assignments,
// conversions, encoders and module-function summaries, and reports:
//
//   - flows into fmt/log calls or error strings (directly or through a
//     callee whose summary logs the parameter): a formatted secret ends
//     up in journals, crash dumps and bug reports;
//   - variable-time comparisons (bytes.Equal, reflect.DeepEqual, ==/!=
//     on strings or byte arrays) of secret-derived values, or — in a
//     crypto package — of anything named like an authenticator (MAC, ICV,
//     tag, digest, peer-echoed nonce): an attacker who can submit guesses
//     learns a prefix length per probe. Such comparisons must go through
//     hmac.Equal or subtle.ConstantTimeCompare;
//   - ECDH shared secrets that are never zeroized: a local holding the
//     raw shared secret must be cleared (keymat.Zeroize, clear, a zero
//     loop, or a callee that zeroizes it) unless ownership moves on (it
//     is returned, stored, or handed to a callee that retains it);
//   - rekey/teardown paths that drop live keys: in a crypto package, a
//     function whose name says it retires state (rekey, close, forget,
//     evict, ...) must not overwrite a secret-bearing field, and no
//     function may delete a map entry whose value directly holds key
//     bytes, without wiping the old bytes first — the backing arrays
//     otherwise stay readable on the heap indefinitely.
//
// Secret-bearing struct fields are discovered program-wide: any store
// of tainted data into T.f marks the class "T.f" for every package, so
// a field filled by one function is protected in all the others. The
// engine is a may-analysis: copies count for taint (hex encoding a key
// is still the key) but not for retention, and unknown stdlib callees
// neither launder nor retain secrets.
var SecFlow = &Analyzer{
	Name: "secflow",
	Doc:  "key material flowing into logs, variable-time compares, or dropped without zeroization",
	Run:  runSecFlow,
}

// cryptoPkgs names the packages handling keys and authenticators, keyed
// by package name (fixtures re-declare these names under testdata).
var cryptoPkgs = map[string]bool{
	"esp": true, "keymat": true, "tlslite": true, "hip": true,
	"puzzle": true, "identity": true, "secio": true, "hipwire": true,
}

// sensitiveWords mark a value as authenticator-like when they appear in
// its name.
var sensitiveWords = []string{"mac", "icv", "tag", "digest", "sum", "hmac", "nonce", "echo", "finished"}

func isSensitiveName(name string) bool {
	l := strings.ToLower(name)
	for _, w := range sensitiveWords {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// exprName extracts the rightmost identifier-ish name from an expression:
// a.echoSent -> "echoSent", mac.Sum(nil) -> "Sum", tag[:n] -> "tag".
func exprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.ParenExpr:
		return exprName(x.X)
	case *ast.SliceExpr:
		return exprName(x.X)
	case *ast.IndexExpr:
		return exprName(x.X)
	case *ast.CallExpr:
		return exprName(x.Fun)
	}
	return ""
}

// comparableSecretType limits the ==/!= rule to byte arrays and strings —
// the shapes key and authenticator material takes; integer tags and enum
// comparisons stay legal.
func comparableSecretType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isStringType(tv.Type) || isByteArrayType(tv.Type)
}

// retireRe matches function names that retire or replace secret-bearing
// state; overwriting key material there ends its life and obliges a wipe.
var retireRe = regexp.MustCompile(`(?i)rekey|close|shutdown|retire|forget|evict|teardown|destroy|remove|replace`)

// secretParamName reports whether a []byte-ish parameter's name marks it
// as key material ("key", "encKey", "secret", "kij", "ticket", "priv").
// Public-key names are excluded.
func secretParamName(name string) bool {
	l := strings.ToLower(name)
	if strings.Contains(l, "pub") {
		return false
	}
	return strings.Contains(l, "key") || strings.Contains(l, "secret") ||
		l == "kij" || l == "ticket" || strings.HasPrefix(l, "priv")
}

// isByteArrayType reports whether t's underlying type is [N]byte.
func isByteArrayType(t types.Type) bool {
	a, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := a.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func byteish(t types.Type) bool { return isByteSliceType(t) || isByteArrayType(t) }

// containsByteData reports whether t directly owns byte storage: []byte,
// [N]byte, or a struct/array embedding either. Pointers stop the walk —
// deleting a pointer does not end the pointee's life.
func containsByteData(t types.Type) bool { return containsByteData1(t, 0) }

func containsByteData1(t types.Type, depth int) bool {
	if depth > 6 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Array:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Byte
		}
		return containsByteData1(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsByteData1(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Map:
		return containsByteData1(u.Elem(), depth+1)
	}
	return false
}

// exprTypeOf resolves an expression's static type, falling back to the
// declared object for fresh := identifiers (which have no Types entry).
func exprTypeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// fieldClassOf names the field a selector reads/writes, qualified by the
// owning named type: a.keys on *hip.Association → "Association.keys".
// Package-qualified selectors and unnamed types return "".
func fieldClassOf(info *types.Info, sel *ast.SelectorExpr) string {
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return n.Obj().Name() + "." + sel.Sel.Name
}

// secretFieldClasses computes (once per program) the set of "Type.field"
// classes observed to hold secret data anywhere in the program, iterated
// to a fixpoint so a class established in one package taints reads of
// that field everywhere.
func (p *Program) secretFieldClasses() map[string]bool {
	if p.secretClasses != nil {
		return p.secretClasses
	}
	classes := map[string]bool{}
	for round := 0; round < 8; round++ {
		grew := false
		for _, pkg := range p.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					w := newSecWalker(p, pkg, fd, classes)
					w.collect()
					for c := range w.newClasses {
						if !classes[c] {
							classes[c] = true
							grew = true
						}
					}
				}
			}
		}
		if !grew {
			break
		}
	}
	p.secretClasses = classes
	return classes
}

// secWalker analyzes one function: a collect phase grows chain-taint,
// alias and zeroize-event sets to a fixpoint, then a report phase walks
// the body once flagging sinks.
type secWalker struct {
	prog    *Program
	pkg     *Package
	info    *types.Info
	fd      *ast.FuncDecl
	classes map[string]bool

	taint      map[string]bool   // access chains carrying secrets
	aliasOf    map[string]string // local name → chain it was read from
	zeroed     map[string]bool   // chains with a zeroize event
	newClasses map[string]bool

	pass *Pass // nil during class computation
}

func newSecWalker(prog *Program, pkg *Package, fd *ast.FuncDecl, classes map[string]bool) *secWalker {
	w := &secWalker{
		prog: prog, pkg: pkg, info: pkg.Info, fd: fd, classes: classes,
		taint:      map[string]bool{},
		aliasOf:    map[string]string{},
		zeroed:     map[string]bool{},
		newClasses: map[string]bool{},
	}
	// Seed: []byte-ish parameters named like key material are secret in
	// crypto packages (semantic taint has no cross-function argument
	// propagation; the naming convention closes that gap).
	if cryptoPkgs[pkg.Name] {
		if fd.Type.Params != nil {
			for _, fld := range fd.Type.Params.List {
				for _, name := range fld.Names {
					obj := pkg.Info.Defs[name]
					if obj != nil && byteish(obj.Type()) && secretParamName(name.Name) {
						w.taint[name.Name] = true
					}
				}
			}
		}
	}
	return w
}

// resolveAlias rewrites a chain's leading segment through the alias map:
// with s := c.m[k], the chain "s.ticket" resolves to "c.m.ticket".
func (w *secWalker) resolveAlias(c string) string {
	for i := 0; i < 4; i++ {
		head, rest, ok := strings.Cut(c, ".")
		tgt, has := w.aliasOf[head]
		if !has {
			return c
		}
		if !ok {
			c = tgt
		} else {
			c = tgt + "." + rest
		}
	}
	return c
}

// chainSecret reports whether the chain e reads from is tainted, testing
// every prefix (a tainted "a.keys" taints "a.keys.HIPMacOut" but not
// "a").
func (w *secWalker) chainSecret(e ast.Expr) bool {
	c, base := rootChain(w.info, e)
	if base == nil {
		return false
	}
	for _, q := range []string{c, w.resolveAlias(c)} {
		for {
			if w.taint[q] {
				return true
			}
			i := strings.LastIndexByte(q, '.')
			if i < 0 {
				break
			}
			q = q[:i]
		}
	}
	return false
}

// secret reports whether e's value may carry key material.
func (w *secWalker) secret(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return w.secretCall(x)
	case *ast.BinaryExpr:
		return w.secret(x.X) || w.secret(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.secret(el) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return w.secret(x.X)
	case *ast.StarExpr:
		return w.secret(x.X)
	case *ast.SliceExpr:
		return w.secret(x.X)
	case *ast.IndexExpr:
		return w.secret(x.X)
	case *ast.TypeAssertExpr:
		return w.secret(x.X)
	case *ast.SelectorExpr:
		if c := fieldClassOf(w.info, x); c != "" && w.classes[c] {
			return true
		}
		if secretFieldNames[x.Sel.Name] && cryptoPkgs[w.pkg.Name] {
			return true
		}
		return w.chainSecret(x)
	case *ast.Ident:
		return w.chainSecret(x)
	}
	return false
}

func (w *secWalker) secretCall(call *ast.CallExpr) bool {
	if tv, ok := w.info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.secret(call.Args[0]) // conversion
	}
	if isBuiltinCall(w.info, call, "len") || isBuiltinCall(w.info, call, "cap") {
		return false
	}
	if isBuiltinCall(w.info, call, "append") {
		for _, a := range call.Args {
			if w.secret(a) {
				return true
			}
		}
		return false
	}
	if _, ok := isSecretSource(w.info, call); ok {
		return true
	}
	fn := calleeFunc(w.info, call)
	if fn != nil && isTaintPropagator(fn) {
		for _, a := range call.Args {
			if w.secret(a) {
				return true
			}
		}
		return false
	}
	for _, cand := range w.prog.resolveCall(w.info, call) {
		sum := w.prog.SummaryOf(cand)
		if sum == nil {
			continue
		}
		if sum.ReturnsSecret {
			return true
		}
		if sum.TaintsReturn {
			for _, a := range callArgsWithRecv(call, cand) {
				if a != nil && w.secret(a) {
					return true
				}
			}
		}
	}
	return false
}

// markZero records a zeroize event on e's chain (raw and alias-resolved).
func (w *secWalker) markZero(e ast.Expr) {
	c, base := rootChain(w.info, e)
	if base == nil {
		return
	}
	w.zeroed[c] = true
	w.zeroed[w.resolveAlias(c)] = true
}

// zeroCovers reports whether chain c (or any chain it contains / is
// contained by) saw a zeroize event.
func (w *secWalker) zeroCovers(c string) bool {
	for _, q := range []string{c, w.resolveAlias(c)} {
		for z := range w.zeroed {
			if z == q || strings.HasPrefix(z, q+".") || strings.HasPrefix(q, z+".") {
				return true
			}
		}
	}
	return false
}

// collect grows taint/alias/zeroed to a fixpoint over the body.
func (w *secWalker) collect() {
	for round := 0; round < 8; round++ {
		before := len(w.taint) + len(w.aliasOf) + len(w.zeroed) + len(w.newClasses)
		ast.Inspect(w.fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				w.collectAssign(x)
			case *ast.RangeStmt:
				if target, ok := w.zeroLoopTarget(x); ok {
					w.markZero(target)
				}
			case *ast.CallExpr:
				w.collectCall(x)
			case *ast.CompositeLit:
				w.collectComposite(x)
			}
			return true
		})
		if len(w.taint)+len(w.aliasOf)+len(w.zeroed)+len(w.newClasses) == before {
			break
		}
	}
}

func (w *secWalker) collectAssign(as *ast.AssignStmt) {
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
		// Alias: a plain local bound to a readable chain.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if rc, rbase := rootChain(w.info, rhs); rbase != nil && rc != id.Name {
				w.aliasOf[id.Name] = w.resolveAlias(rc)
			}
		}
		if !w.secret(rhs) {
			continue
		}
		// Only types that can physically carry key bytes take taint: in a
		// tuple assignment from one secret-returning call, the []byte
		// result is tainted and the error is not.
		if !taintCarrier(exprTypeOf(w.info, lhs)) {
			continue
		}
		lc, lbase := rootChain(w.info, lhs)
		if lbase == nil {
			continue
		}
		w.taint[lc] = true
		w.taint[w.resolveAlias(lc)] = true
		if sel := innerSelector(lhs); sel != nil {
			if c := fieldClassOf(w.info, sel); c != "" {
				w.newClasses[c] = true
			}
		}
	}
}

// collectComposite records classes for struct literals whose fields are
// filled with secrets (AssociationKeys{HIPEncOut: draw(...), ...}).
func (w *secWalker) collectComposite(cl *ast.CompositeLit) {
	tv, ok := w.info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range cl.Elts {
		var fieldName string
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				fieldName = id.Name
			}
			val = kv.Value
		} else if i < st.NumFields() {
			fieldName = st.Field(i).Name()
		}
		if fieldName != "" && w.secret(val) {
			w.newClasses[named.Obj().Name()+"."+fieldName] = true
		}
	}
}

func (w *secWalker) collectCall(call *ast.CallExpr) {
	if isBuiltinCall(w.info, call, "clear") && len(call.Args) == 1 {
		w.markZero(call.Args[0])
		return
	}
	for _, cand := range w.prog.resolveCall(w.info, call) {
		sum := w.prog.SummaryOf(cand)
		if sum == nil {
			continue
		}
		for pi, arg := range callArgsWithRecv(call, cand) {
			if arg != nil && sum.paramFacts(pi)&ParamZeroized != 0 {
				w.markZero(arg)
			}
		}
	}
}

// zeroLoopTarget matches `for i := range b { b[i] = 0 }` and returns b.
func (w *secWalker) zeroLoopTarget(r *ast.RangeStmt) (ast.Expr, bool) {
	if r.Key == nil || r.Body == nil || len(r.Body.List) != 1 {
		return nil, false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return nil, false
	}
	ix, ok := as.Lhs[0].(*ast.IndexExpr)
	if !ok || !isZeroConst(w.info, as.Rhs[0]) {
		return nil, false
	}
	if !sameRoot(w.info, ix.X, r.X) {
		return nil, false
	}
	keyID, ok := r.Key.(*ast.Ident)
	if !ok {
		return nil, false
	}
	ixID, ok := ast.Unparen(ix.Index).(*ast.Ident)
	if !ok || ixID.Name != keyID.Name {
		return nil, false
	}
	return r.X, true
}

// innerSelector unwraps index/slice/star/paren layers of an lvalue down
// to the selector being written through, or nil.
func innerSelector(e ast.Expr) *ast.SelectorExpr {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x
	case *ast.IndexExpr:
		return innerSelector(x.X)
	case *ast.SliceExpr:
		return innerSelector(x.X)
	case *ast.StarExpr:
		return innerSelector(x.X)
	case *ast.ParenExpr:
		return innerSelector(x.X)
	}
	return nil
}

// exprDesc renders an expression for a diagnostic: its access chain when
// it has one, else a generic label.
func (w *secWalker) exprDesc(e ast.Expr) string {
	if c, base := rootChain(w.info, e); base != nil {
		return c
	}
	return "value"
}

func runSecFlow(pass *Pass) {
	classes := pass.Prog.secretFieldClasses()
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := newSecWalker(pass.Prog, pass.Pkg, fd, classes)
			w.pass = pass
			w.collect()
			w.report()
		}
	}
}

// heapRooted reports whether base names storage that outlives the
// function: a pointer (overwriting through it mutates the pointee and
// strands the old value on the heap) or a package-level variable.
// Overwriting fields of a value-typed local or parameter mutates a stack
// copy — the fresh struct a Derive*/rekey helper is assembling — and
// retires nothing live; the caller's original stays subject to the rule
// in its own scope.
func heapRooted(base types.Object) bool {
	v, ok := base.(*types.Var)
	if !ok {
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true
	}
	_, isPtr := v.Type().Underlying().(*types.Pointer)
	return isPtr
}

func (w *secWalker) report() {
	retiring := cryptoPkgs[w.pkg.Name] && retireRe.MatchString(w.fd.Name.Name)

	// Track ECDH shared-secret locals for the must-zeroize rule.
	type ecdhLocal struct {
		name string
		pos  token.Pos
		ok   bool
	}
	var ecdhLocals []*ecdhLocal
	localByName := func(root string) *ecdhLocal {
		for _, l := range ecdhLocals {
			if l.name == root {
				return l
			}
		}
		return nil
	}
	chainRootOf := func(e ast.Expr) string {
		c, base := rootChain(w.info, e)
		if base == nil {
			return ""
		}
		head, _, _ := strings.Cut(c, ".")
		return head
	}

	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// New ECDH locals.
			if cryptoPkgs[w.pkg.Name] && len(x.Rhs) == 1 && len(x.Lhs) >= 1 {
				if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok && isECDHSecret(w.info, call) {
					if id, ok := ast.Unparen(x.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
						ecdhLocals = append(ecdhLocals, &ecdhLocal{name: id.Name, pos: call.Pos()})
					}
				}
			}
			// Storing an ECDH local elsewhere transfers ownership.
			for i, rhs := range x.Rhs {
				if l := localByName(chainRootOf(rhs)); l != nil {
					if i < len(x.Lhs) {
						if _, isIdent := ast.Unparen(x.Lhs[i]).(*ast.Ident); !isIdent {
							l.ok = true
						}
					}
				}
			}
			// Retire rule: overwriting a secret-bearing field without a
			// preceding wipe on a rekey/teardown path.
			if retiring && x.Tok == token.ASSIGN {
				for _, lhs := range x.Lhs {
					sel := innerSelector(lhs)
					if sel == nil {
						continue
					}
					class := fieldClassOf(w.info, sel)
					if class == "" || !w.classes[class] {
						continue
					}
					tv, ok := w.info.Types[lhs.(ast.Expr)]
					if !ok || !containsByteData(tv.Type) {
						continue
					}
					lc, base := rootChain(w.info, lhs)
					if lc != "" && heapRooted(base) && !w.zeroCovers(lc) {
						w.pass.Reportf(lhs.Pos(), "%s (class %s) holds live key material and is overwritten on a retire/rekey path without zeroizing the old value; wipe it (keymat.Zeroize / clear) before replacing", lc, class)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if l := localByName(chainRootOf(r)); l != nil {
					l.ok = true
				}
			}
		case *ast.CallExpr:
			w.reportCall(x)
			// Handing an ECDH local to a callee that retains or zeroizes
			// it discharges the must-zeroize obligation.
			for _, cand := range w.prog.resolveCall(w.info, x) {
				sum := w.prog.SummaryOf(cand)
				if sum == nil {
					continue
				}
				for pi, arg := range callArgsWithRecv(x, cand) {
					if arg == nil {
						continue
					}
					if l := localByName(chainRootOf(arg)); l != nil {
						if sum.paramFacts(pi)&(ParamRetained|ParamZeroized) != 0 {
							l.ok = true
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) &&
				(comparableSecretType(w.info, x.X) || comparableSecretType(w.info, x.Y)) {
				w.reportVarTime(x.Pos(), x.Op.String(), x.X, x.Y)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if l := localByName(chainRootOf(el)); l != nil {
					l.ok = true
				}
			}
		}
		return true
	})

	for _, l := range ecdhLocals {
		if !l.ok && !w.zeroCovers(l.name) {
			w.pass.Reportf(l.pos, "ECDH shared secret %s is never zeroized in %s; clear it (keymat.Zeroize) once the KDF has consumed it — a lingering heap copy discloses every key derived from it", l.name, w.fd.Name.Name)
		}
	}
}

// reportVarTime is the one variable-time-compare sink: op over operands
// is reported, once, when an operand is secret by dataflow or — in a
// crypto package — named like an authenticator.
func (w *secWalker) reportVarTime(pos token.Pos, op string, operands ...ast.Expr) {
	for _, e := range operands {
		desc := ""
		switch {
		case w.secret(e):
			desc = w.exprDesc(e)
		case cryptoPkgs[w.pkg.Name] && isSensitiveName(exprName(e)):
			desc = exprName(e)
		default:
			continue
		}
		w.pass.Reportf(pos, "%s on %q is variable-time; compare key material and authenticators with hmac.Equal or subtle.ConstantTimeCompare", op, desc)
		return
	}
}

func (w *secWalker) reportCall(call *ast.CallExpr) {
	info := w.info
	fn := calleeFunc(info, call)

	// delete(m, k) dropping key bytes without a wipe.
	if cryptoPkgs[w.pkg.Name] && isBuiltinCall(info, call, "delete") && len(call.Args) == 2 {
		if tv, ok := info.Types[call.Args[0]]; ok && tv.Type != nil {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				if _, isPtr := m.Elem().Underlying().(*types.Pointer); !isPtr && containsByteData(m.Elem()) && w.secret(call.Args[0]) {
					if c, base := rootChain(info, call.Args[0]); base != nil && !w.zeroCovers(c) {
						w.pass.Reportf(call.Pos(), "delete on %s drops an entry holding key material without zeroizing it; read the entry and wipe its byte fields (keymat.Zeroize) before deleting", c)
					}
				}
			}
		}
		return
	}

	if fn != nil && isLogSink(fn) {
		for _, a := range call.Args {
			if w.secret(a) {
				w.pass.Reportf(a.Pos(), "key material (%s) flows into %s.%s; secrets must never be formatted into logs or error strings", w.exprDesc(a), fn.Pkg().Name(), fn.Name())
			}
		}
		return
	}
	if fn != nil && ((fn.Name() == "Equal" && pkgPathOf(fn) == "bytes") || (fn.Name() == "DeepEqual" && pkgPathOf(fn) == "reflect")) {
		w.reportVarTime(call.Pos(), fn.Pkg().Name()+"."+fn.Name(), call.Args...)
		return
	}

	// Interprocedural sinks through module callees.
	for _, cand := range w.prog.resolveCall(info, call) {
		sum := w.prog.SummaryOf(cand)
		if sum == nil {
			continue
		}
		name := cand.Name()
		if r := recvTypeName(cand); r != "" {
			name = r + "." + name
		}
		for pi, arg := range callArgsWithRecv(call, cand) {
			if arg == nil || !w.secret(arg) {
				continue
			}
			facts := sum.paramFacts(pi)
			if facts&ParamLogged != 0 {
				w.pass.Reportf(arg.Pos(), "key material (%s) passed to %s, which formats it into a log or error string", w.exprDesc(arg), name)
			}
			if facts&ParamVarCompared != 0 {
				w.pass.Reportf(arg.Pos(), "key material (%s) passed to %s, which compares it in variable time; use hmac.Equal or subtle.ConstantTimeCompare", w.exprDesc(arg), name)
			}
		}
	}
}
