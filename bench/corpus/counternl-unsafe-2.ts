# expect: unsafe
system counternl-unsafe-2
var n : int [1, 256]
init n = 1
trans n' = min(2 * n, 256)
prop n <= 128
