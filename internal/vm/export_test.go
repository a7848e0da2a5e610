package vm

// MemImage exposes the machine's memory words to the external reset
// tests, which compare a reset machine's image with a fresh one's.
func (m *Machine) MemImage() []uint64 { return m.mem }
