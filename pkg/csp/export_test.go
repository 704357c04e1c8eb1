package csp

import (
	"encoding/binary"
	"hash/crc64"
)

// RestampArtifactVersionForTest rewrites an encoded artifact's version
// field and re-stamps the checksum, producing a well-formed file from a
// "different codec version" for skew tests.
func RestampArtifactVersionForTest(data []byte, version uint32) []byte {
	const magicLen = len("CSPSTORE")
	mut := make([]byte, len(data))
	copy(mut, data)
	binary.LittleEndian.PutUint32(mut[magicLen:], version)
	sum := crc64.Checksum(mut[:len(mut)-8], crc64.MakeTable(crc64.ECMA))
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], sum)
	return mut
}

// SetWireMemoBudgetForTest lowers the budget EncodeTraceSetJSON keeps
// listings under and returns a function that restores it.
func SetWireMemoBudgetForTest(n int64) (restore func()) {
	old := wireMemoBudget
	wireMemoBudget = n
	return func() { wireMemoBudget = old }
}
