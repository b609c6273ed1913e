package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// jobPayload builds a job frame payload from a raw JSON header and
// edgeBytes bytes of edge data (edge i joins vertices i and i+1).
func jobPayload(header string, edgeBytes int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(header)))
	buf = append(buf, header...)
	for i := 0; i < edgeBytes/edgeWireSize; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i+1))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i+1))
	}
	return append(buf, make([]byte, edgeBytes%edgeWireSize)...)
}

// TestDecodeJobRejectsBadSizes feeds decodeJob headers whose counts no
// frame can back. Each must come back as a *JobError, not a panic or
// an allocation sized by the header.
func TestDecodeJobRejectsBadSizes(t *testing.T) {
	overflowM := fmt.Sprint(uint64(1)<<60 + 1) // m·16 wraps to 16
	tests := []struct {
		name      string
		header    string
		edgeBytes int
	}{
		{"negative n", `{"n":-1,"m":0}`, 0}, // once a worker-killing makeslice panic
		{"negative m", `{"n":4,"m":-1}`, 0},
		{"n past the cap", fmt.Sprintf(`{"n":%d,"m":0}`, maxJobVertices+1), 0},
		{"too few edge bytes", `{"n":4,"m":2}`, edgeWireSize},
		{"too many edge bytes", `{"n":4,"m":1}`, 2 * edgeWireSize},
		{"partial edge", `{"n":4,"m":1}`, edgeWireSize + 3},
		{"m·16 overflows", `{"n":4,"m":` + overflowM + `}`, edgeWireSize},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, g, err := decodeJob(jobPayload(tt.header, tt.edgeBytes))
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("decodeJob = (%v, %v), want a *JobError", g, err)
			}
		})
	}
}

func TestDecodeJobAcceptsExactSizes(t *testing.T) {
	for _, tt := range []struct {
		header    string
		edgeBytes int
		n, m      int
	}{
		{`{"n":0,"m":0}`, 0, 0, 0},
		{`{"n":2,"m":1}`, edgeWireSize, 2, 1},
		{`{"n":3,"m":2}`, 2 * edgeWireSize, 3, 2},
	} {
		h, g, err := decodeJob(jobPayload(tt.header, tt.edgeBytes))
		if err != nil {
			t.Fatalf("%s: %v", tt.header, err)
		}
		if h.N != tt.n || g.N() != tt.n || g.M() != tt.m {
			t.Errorf("%s: header n=%d, graph n=%d m=%d", tt.header, h.N, g.N(), g.M())
		}
	}
}
