# expect: safe
system counternl-safe-0
var n : int [1, 64]
init n = 1
trans n' = min(2 * n, 64)
prop n <= 64
