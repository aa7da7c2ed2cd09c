let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  let digit d = Char.chr (if d < 10 then Char.code '0' + d else Char.code 'a' + d - 10) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (digit (c land 15))
  done;
  Bytes.unsafe_to_string b

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  let v c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hex.decode: not a hex digit"
  in
  String.init (n / 2) (fun i -> Char.chr ((v s.[2 * i] lsl 4) lor v s.[(2 * i) + 1]))

(* A sealed blob is [digest ^ bytes]: the 16-byte MD5 of the
   marshalled bytes, then the bytes.  The digest is checked before
   [Marshal.from_string] sees anything, because unmarshalling corrupt
   bytes is not a clean error — a flipped length field can ask for
   gigabytes or build a value of the wrong shape.  An empty body is
   refused too: no marshalled value is empty. *)
let seal_raw v =
  let bytes = Marshal.to_string v [] in
  Digest.string bytes ^ bytes

let unseal_raw raw =
  let len = String.length raw in
  if len > 16 && Digest.equal (String.sub raw 0 16) (Digest.substring raw 16 (len - 16))
  then Some (Marshal.from_string raw 16)
  else None

let seal v = encode (seal_raw v)

let unseal s =
  match decode s with exception Invalid_argument _ -> None | raw -> unseal_raw raw
