package core

import "io"

// DecodeJSONWindow is DecodeJSON through a window of size bytes, so tests
// can make every token straddle a refill.
func DecodeJSONWindow(r io.Reader, size int) (*TaskGraph, error) { return decodeReader(r, size) }
