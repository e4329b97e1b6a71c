package runtime

// ArcBuffers returns the engine's arc message double buffer, in no
// particular order; both are nil until a run on the engine sends.
func ArcBuffers(e *Engine) [2][]Message { return [2][]Message{e.ex.cur, e.ex.next} }
