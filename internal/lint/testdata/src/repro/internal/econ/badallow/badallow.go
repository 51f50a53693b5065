// Package badallow is a decentlint analysistest fixture: a malformed
// //decentlint:allow (missing reason) must not suppress anything and is
// itself a finding, and so is an allow naming a check the suite does not
// have.
package badallow

import "os"

func read() string {
	//decentlint:allow nondeterm
	return os.Getenv("HOME")
}

func stale() int {
	//decentlint:allow retired left behind after its analyzer went
	return 1
}
