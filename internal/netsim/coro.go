//go:build go1.23

// The build constraint sets this file's language version to go1.23, the
// release iter.Pull arrived in (go vet rejects it in a go1.22 file), while
// go.mod and bench/go.mod stay at go 1.22.

package netsim

import "iter"

// start backs p with a coroutine running its worker loop, which starts at
// the first transferTo.
func (p *Proc) start() {
	p.next, _ = iter.Pull(p.loop)
}
