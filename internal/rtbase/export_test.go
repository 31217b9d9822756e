package rtbase

// SlotApp exposes slotApp to the external tests, which need a real
// runtime (internal/core imports this package).
var SlotApp = slotApp
