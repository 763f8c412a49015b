// Package ext is the cross-package half of the hotset fixture: Far
// implements netsim.Multi from outside the package that declares it,
// which is what keeps Multi from being sealed.
package ext

import netsim "hipcloud/internal/analysis/testdata/src/hotset"

type Far struct{}

func (Far) Do() { netsim.ImplReached(2) }

var _ netsim.Multi = Far{}
