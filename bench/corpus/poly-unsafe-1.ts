# expect: unsafe
system poly-unsafe-1
var x : real [0, 6.25]
init x >= 0.5 and x <= 0.6
trans x' = x + 0.2 * (1 * x - 0.16 * x^3)
prop x <= 1.75
