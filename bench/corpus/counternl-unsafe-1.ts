# expect: unsafe
system counternl-unsafe-1
var n : int [1, 128]
init n = 1
trans n' = min(2 * n, 128)
prop n <= 64
