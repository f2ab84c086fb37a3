// Fixture: a library package smuggling gob around the tagged codec.
package sidechannel

import (
	"bytes"
	"encoding/gob" // want `encoding/gob imported: all wire traffic must flow through the tagged binary codec`
)

func encode(v any) []byte {
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}
