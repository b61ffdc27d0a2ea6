package linalg

// MinDegreeOrder exposes the ordering to the external tests, which hold
// it to its first version on compiled models.
var MinDegreeOrder = minDegreeOrder

// HubList exposes the list length above which a node's neighbours are
// indexed, so the tests can size patterns that reach it.
const HubList = hubList
