# expect: safe
system poly-safe-7
var x : real [0, 12.5]
init x >= 0.5 and x <= 0.6
trans x' = x + 0.2 * (1 * x - 0.04 * x^3)
prop x <= 7
