# expect: safe
system counternl-safe-2
var n : int [1, 256]
init n = 1
trans n' = min(2 * n, 256)
prop n <= 256
