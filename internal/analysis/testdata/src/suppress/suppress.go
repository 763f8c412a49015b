// Package esp here is a hiplint fixture for //lint:allow handling: a
// justified waiver silences exactly one diagnostic, an identical
// violation without one still fires, and a waiver with no reason is
// itself a finding (and suppresses nothing). It borrows a crypto
// package's name so secflow's variable-time compare rule applies.
package esp

import "bytes"

func suppressedOnce(tag, want []byte) bool {
	//lint:allow secflow fixture: this one variable-time compare is intentional
	a := bytes.Equal(tag, want)
	b := bytes.Equal(tag, want) // want "bytes.Equal on .tag. is variable-time"
	return a && b
}

func malformedWaiver(tag, want []byte) bool {
	// want:+1 "suppression is missing a check name and/or reason"
	//lint:allow secflow
	return bytes.Equal(tag, want) // want "bytes.Equal on .tag. is variable-time"
}

func unknownCheckWaiver(tag, want []byte) bool {
	// want:+1 "names unknown check .nosuch.; it suppresses nothing"
	//lint:allow nosuch fixture: the check name has a typo
	return bytes.Equal(tag, want) // want "bytes.Equal on .tag. is variable-time"
}

func unusedWaiver(tag []byte) int {
	// want:+1 "unused //lint:allow secflow: the check reports nothing"
	//lint:allow secflow fixture: this line stopped violating long ago
	return len(tag)
}
